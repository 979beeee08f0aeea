// Package repro's benchmark harness: one benchmark per table and figure
// of the paper's evaluation (see DESIGN.md's experiment index), plus the
// design-choice ablations. Each benchmark regenerates the corresponding
// artifact at a reduced dataset scale and reports the headline measured
// quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction alongside timing. For the full-scale runs
// recorded in EXPERIMENTS.md use `go run ./cmd/hpcmal repro all`.
package repro_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchConfig keeps benchmark iterations affordable: ~3% of the paper's
// database with shortened traces.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:  1,
		Scale: 0.03,
		Trace: trace.Config{WindowsPerSample: 8, SimInstrPerSlice: 800, Multiplex: true},
	}
}

// sharedRunner reuses one generated dataset across benchmarks that do not
// regenerate data themselves, mirroring the paper's single database.
var (
	runnerOnce   sync.Once
	sharedRunner *experiments.Runner
)

func getRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		sharedRunner = experiments.NewRunner(experiments.WithConfig(benchConfig()))
	})
	if _, err := sharedRunner.Dataset(); err != nil {
		b.Fatal(err)
	}
	return sharedRunner
}

// cellPct parses a "93.5%" cell into 93.5.
func cellPct(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("bad percent cell %q: %v", s, err)
	}
	return v
}

// runExperiment runs one experiment b.N times and returns the last report.
// Each iteration runs on a copy of the shared runner. The shared runner
// itself runs no paper figure, so the copy shares the dataset but none of
// the detectors a Runner trains once for several reports, and every
// iteration pays for its figure's own training.
func runExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	base := getRunner(b)
	b.ResetTimer()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		r := *base
		rep, err = r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkTable1_DatasetGeneration(b *testing.B) {
	// This one measures generation itself: fresh runner per iteration.
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.WithConfig(cfg))
		rep, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		total, err := strconv.Atoi(rep.Rows[len(rep.Rows)-1][3])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(total), "rows")
	}
}

func BenchmarkTable2_PCAFeatureSelection(b *testing.B) {
	rep := runExperiment(b, "table2")
	if len(rep.Rows) != 8 {
		b.Fatalf("table2 rows %d", len(rep.Rows))
	}
}

func BenchmarkFig6_ClassDistribution(b *testing.B) {
	rep := runExperiment(b, "fig6")
	if len(rep.Rows) != 6 {
		b.Fatalf("fig6 rows %d", len(rep.Rows))
	}
}

func BenchmarkFig9to12_PCAProjection(b *testing.B) {
	rep := runExperiment(b, "pcaplots")
	// Report the mean separation ratio across the four families.
	sum := 0.0
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	b.ReportMetric(sum/float64(len(rep.Rows)), "sep_ratio")
}

func BenchmarkFig13_BinaryAccuracy(b *testing.B) {
	rep := runExperiment(b, "fig13")
	// Report the mean accuracy at 8 features across all classifiers.
	sum := 0.0
	for _, row := range rep.Rows {
		sum += cellPct(b, row[2])
	}
	b.ReportMetric(sum/float64(len(rep.Rows)), "mean_acc8_%")
}

func BenchmarkFig14_Area(b *testing.B) {
	rep := runExperiment(b, "fig14")
	var oner, mlp float64
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			b.Fatal(err)
		}
		switch row[0] {
		case "OneR":
			oner = v
		case "MLP":
			mlp = v
		}
	}
	if oner == 0 || mlp == 0 {
		b.Fatal("missing classifiers in fig14")
	}
	b.ReportMetric(mlp/oner, "mlp_vs_oner_area_x")
}

func BenchmarkFig15_Latency(b *testing.B) {
	rep := runExperiment(b, "fig15")
	var mlpCycles float64
	for _, row := range rep.Rows {
		if row[0] == "MLP" {
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				b.Fatal(err)
			}
			mlpCycles = v
		}
	}
	b.ReportMetric(mlpCycles, "mlp_cycles")
}

func BenchmarkFig16_AccuracyPerArea(b *testing.B) {
	rep := runExperiment(b, "fig16")
	// The winner (first row after sorting) should be a rule classifier.
	best := rep.Rows[0][0]
	if best != "OneR" && best != "JRip" && best != "REPTree" && best != "J48" &&
		best != "Logistic" && best != "SVM" {
		b.Logf("note: accuracy/area winner is %s", best)
	}
	v, err := strconv.ParseFloat(rep.Rows[0][3], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "best_acc_per_kLUT")
}

func BenchmarkFig17_MulticlassAccuracy(b *testing.B) {
	rep := runExperiment(b, "fig17")
	sum := 0.0
	for _, row := range rep.Rows {
		sum += cellPct(b, row[1])
	}
	b.ReportMetric(sum/float64(len(rep.Rows)), "mean_multiclass_%")
}

func BenchmarkFig18_PerClassAccuracy(b *testing.B) {
	rep := runExperiment(b, "fig18")
	if len(rep.Rows) != 3 || len(rep.Rows[0]) != 7 {
		b.Fatalf("fig18 shape %dx%d", len(rep.Rows), len(rep.Rows[0]))
	}
}

func BenchmarkFig19_PCAAssistedMLR(b *testing.B) {
	rep := runExperiment(b, "fig19")
	last := rep.Rows[len(rep.Rows)-1]
	delta := cellPct(b, last[2]) - cellPct(b, last[1])
	b.ReportMetric(delta, "pca_assist_delta_%")
}

func benchAblation(b *testing.B, id string) *experiments.Report {
	b.Helper()
	r := getRunner(b)
	b.ResetTimer()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = r.RunAblation(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkAblation_Multiplexing(b *testing.B) {
	rep := benchAblation(b, "ablate-multiplex")
	delta := cellPct(b, rep.Rows[0][1]) - cellPct(b, rep.Rows[1][1])
	b.ReportMetric(delta, "mux_cost_%")
}

func BenchmarkAblation_SamplingPeriod(b *testing.B) {
	rep := benchAblation(b, "ablate-period")
	if len(rep.Rows) != 3 {
		b.Fatalf("period sweep rows %d", len(rep.Rows))
	}
}

func BenchmarkAblation_GlobalVsCustomFeatures(b *testing.B) {
	rep := benchAblation(b, "ablate-custom")
	delta := cellPct(b, rep.Rows[1][1]) - cellPct(b, rep.Rows[0][1])
	b.ReportMetric(delta, "custom_delta_%")
}

func BenchmarkAblation_IsolationNoise(b *testing.B) {
	rep := benchAblation(b, "ablate-noise")
	delta := cellPct(b, rep.Rows[0][1]) - cellPct(b, rep.Rows[len(rep.Rows)-1][1])
	b.ReportMetric(delta, "isolation_gain_%")
}

func benchExtension(b *testing.B, id string) *experiments.Report {
	b.Helper()
	r := getRunner(b)
	b.ResetTimer()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = r.RunExtension(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkExtension_Ensemble(b *testing.B) {
	rep := benchExtension(b, "ext-ensemble")
	if len(rep.Rows) != 6 {
		b.Fatalf("ensemble rows %d", len(rep.Rows))
	}
	// Report the best ensemble accuracy.
	best := 0.0
	for _, row := range rep.Rows[1:] {
		if v := cellPct(b, row[1]); v > best {
			best = v
		}
	}
	b.ReportMetric(best, "best_ensemble_acc_%")
}

func BenchmarkExtension_Anomaly(b *testing.B) {
	rep := benchExtension(b, "ext-anomaly")
	v, err := strconv.ParseFloat(rep.Rows[0][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "mahalanobis_auc")
}

func BenchmarkExtension_OnlineDetection(b *testing.B) {
	rep := benchExtension(b, "ext-online")
	// Mean malware detect rate across the five families.
	sum, n := 0.0, 0
	for _, row := range rep.Rows {
		if row[0] == "benign" {
			continue
		}
		sum += cellPct(b, row[1])
		n++
	}
	b.ReportMetric(sum/float64(n), "mean_detect_rate_%")
}

func BenchmarkExtension_FeatureAgreement(b *testing.B) {
	rep := benchExtension(b, "ext-features")
	if len(rep.Rows) != 5 {
		b.Fatalf("feature agreement rows %d", len(rep.Rows))
	}
}

func BenchmarkExtension_LearningCurve(b *testing.B) {
	rep := benchExtension(b, "ext-learncurve")
	if len(rep.Rows) != 3 {
		b.Fatalf("learning curve rows %d", len(rep.Rows))
	}
}

func BenchmarkExtension_Quantization(b *testing.B) {
	rep := benchExtension(b, "ext-quant")
	// Agreement at 12 dropped bits.
	for _, row := range rep.Rows {
		if row[0] == "12" {
			b.ReportMetric(cellPct(b, row[2]), "agree_at_12bits_%")
		}
	}
}

// ---------------------------------------------------------------------
// Serial vs parallel engine benchmarks. Each pair runs the same workload
// at 1 worker and at benchWorkers, so
//
//	go test -bench=Parallel -benchtime=3x
//
// prints the measured speedup of the three hot paths the -parallel flag
// bounds: container generation, 10-fold CV, and per-family MLP training.
// The outputs are bit-identical across the pair (see determinism_test.go);
// only wall time may differ.

const benchWorkers = 4

// benchGenConfig is the generation workload for the serial/parallel pair.
func benchGenConfig(workers int) dataset.GenConfig {
	counts := map[workload.Class]int{}
	for _, c := range workload.AllClasses() {
		counts[c] = 4
	}
	return dataset.GenConfig{
		Trace:           benchConfig().Trace,
		SamplesPerClass: counts,
		Seed:            1,
		Parallelism:     workers,
	}
}

func benchGenerate(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(benchGenConfig(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelGen_Serial(b *testing.B)   { benchGenerate(b, 1) }
func BenchmarkParallelGen_Parallel(b *testing.B) { benchGenerate(b, benchWorkers) }

// benchRows caches one feature matrix + binary labels for the CV and MLP
// training benchmarks.
var benchRowsOnce = sync.OnceValues(func() (*dataset.Table, error) {
	return dataset.Generate(benchGenConfig(0))
})

func benchTable(b *testing.B) *dataset.Table {
	b.Helper()
	tbl, err := benchRowsOnce()
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

func benchCV10(b *testing.B, workers int) {
	b.Helper()
	tbl := benchTable(b)
	rows := make([][]float64, len(tbl.Instances))
	for i := range tbl.Instances {
		rows[i] = tbl.Instances[i].Features
	}
	labels := tbl.BinaryLabels()
	factory := func() ml.Classifier {
		c, err := core.NewClassifier("J48", 1)
		if err != nil {
			panic(err)
		}
		return c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.CrossValidate(factory, rows, labels, 2, 10, 1,
			eval.CVWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy()*100, "cv_acc_%")
	}
}

func BenchmarkParallelCV10_Serial(b *testing.B)   { benchCV10(b, 1) }
func BenchmarkParallelCV10_Parallel(b *testing.B) { benchCV10(b, benchWorkers) }

// benchMLPTrain trains one binary family-vs-benign MLP per malware
// family, fanned out on the engine — the per-classifier training pattern
// the figure runners use.
func benchMLPTrain(b *testing.B, workers int) {
	b.Helper()
	tbl := benchTable(b)
	families := workload.MalwareClasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accs, err := parallel.Map(
			parallel.Options{Workers: workers},
			len(families), func(f int) (float64, error) {
				sub := tbl.FilterClasses(workload.Benign, families[f])
				rows := make([][]float64, len(sub.Instances))
				for j := range sub.Instances {
					rows[j] = sub.Instances[j].Features
				}
				labels := sub.BinaryLabels()
				clf, err := core.NewClassifier("MLP", 1)
				if err != nil {
					return 0, err
				}
				if err := clf.Train(rows, labels, 2); err != nil {
					return 0, err
				}
				correct := 0
				for j, row := range rows {
					if clf.Predict(row) == labels[j] {
						correct++
					}
				}
				return float64(correct) / float64(len(rows)), nil
			})
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, a := range accs {
			sum += a
		}
		b.ReportMetric(100*sum/float64(len(accs)), "mean_train_acc_%")
	}
}

func BenchmarkParallelMLPTrain_Serial(b *testing.B)   { benchMLPTrain(b, 1) }
func BenchmarkParallelMLPTrain_Parallel(b *testing.B) { benchMLPTrain(b, benchWorkers) }

func BenchmarkExtension_KNNHardwareCost(b *testing.B) {
	rep := benchExtension(b, "ext-knn")
	if len(rep.Rows) != 2 {
		b.Fatalf("knn rows %d", len(rep.Rows))
	}
	knnLUT, err := strconv.ParseFloat(rep.Rows[0][2], 64)
	if err != nil {
		b.Fatal(err)
	}
	j48LUT, err := strconv.ParseFloat(rep.Rows[1][2], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(knnLUT/j48LUT, "knn_vs_j48_area_x")
}
