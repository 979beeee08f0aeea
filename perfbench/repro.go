package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/micro"
	"repro/internal/ml"
	"repro/internal/ml/eval"
	"repro/internal/parallel"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The repro workload is always the same cold pipeline, so its outputs
// can be compared with the values recorded in expected.json; --seed
// does not change it.
const (
	reproSeed  = 1
	reproScale = 0.05
)

// reproIDs are the reports one cold pipeline produces, in order.
var reproIDs = []string{"table1", "table2", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}

// reproOutputs are the pipeline outputs every repetition must repeat.
type reproOutputs struct {
	TableSHA256   string  `json:"table_sha256"`
	Rows          int     `json:"rows"`
	Fig13Acc16Pct float64 `json:"fig13_acc16_pct"`
	Fig17Pct      float64 `json:"fig17_multiclass_pct"`
}

//go:embed expected.json
var expectedJSON []byte

func expectedRepro() (reproOutputs, error) {
	var exp struct {
		Repro reproOutputs `json:"repro"`
	}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return reproOutputs{}, fmt.Errorf("expected.json: %w", err)
	}
	return exp.Repro, nil
}

// checkRepro records a mismatch for every output that differs from exp.
func checkRepro(res *result, what string, got, exp reproOutputs) {
	if got != exp {
		res.mismatch("%s outputs %+v, want %+v (expected.json)", what, got, exp)
	}
}

// pipelineRun is one cold pipeline, as its process reports it.
type pipelineRun struct {
	WallS   float64      `json:"wall_s"`
	GenS    float64      `json:"gen_s"`
	PeakMB  float64      `json:"peak_rss_mb"`
	CPUS    float64      `json:"cpu_s"`
	Outputs reproOutputs `json:"outputs"`
}

// runRepro runs cold pipelines back to back until opt.seconds have
// passed. Each runs in a fresh process of this binary (see
// runPipelineOnce), as `hpcmal repro` would: nothing is warm, and each
// pipeline's peak RSS is its own.
func runRepro(opt options, w io.Writer) (*result, error) {
	exp, err := expectedRepro()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &result{}
	var walls, gens, peaks, cpus []float64
	var out reproOutputs
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < opt.seconds {
		res.Attempted++
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(self, "--pipeline-once")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var run pipelineRun
		err := cmd.Run()
		if err == nil {
			err = json.Unmarshal(stdout.Bytes(), &run)
		}
		if err != nil {
			res.Failed++
			res.mismatch("pipeline %d: %v: %s", res.Attempted, err, strings.TrimSpace(stderr.String()))
			break
		}
		out = run.Outputs
		checkRepro(res, fmt.Sprintf("pipeline %d", res.Attempted), out, exp)
		walls = append(walls, run.WallS)
		gens = append(gens, run.GenS)
		peaks = append(peaks, run.PeakMB)
		cpus = append(cpus, run.CPUS)
	}
	if len(walls) == 0 {
		return res, nil
	}
	wall := median(walls)
	tail := sortedCopy(walls)[len(walls)-1]
	infof(w, "repro: %d cold pipelines, wall_s median %.4f (each %v), cpu_s %v, dataset %d rows, multiclass_pct %.2f",
		len(walls), wall, walls, cpus, out.Rows, out.Fig17Pct)
	res.set("setup_s", median(gens))
	res.set("windows_per_s", float64(out.Rows)/wall)
	res.set("latency_p50_ms", wall*1000)
	res.set("latency_tail_ms", tail*1000)
	res.set("served_ratio", float64(out.Rows)/float64(expectedRows()))
	res.set("accuracy_pct", out.Fig13Acc16Pct)
	res.set("peak_rss_mb", median(peaks))
	return res, nil
}

// runPipelineOnce runs one cold pipeline in this process: a fresh
// experiments.Runner generates the dataset, then every report of
// Table 1, Table 2 and Figs 13-19. It prints a pipelineRun.
func runPipelineOnce(w io.Writer) error {
	t0 := time.Now()
	r := experiments.NewRunner(experiments.WithSeed(reproSeed), experiments.WithScale(reproScale))
	tbl, err := r.Dataset()
	if err != nil {
		return err
	}
	gen := time.Since(t0)
	reps, err := runReports(r)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	out, err := reproOutputsOf(tbl, reps)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(pipelineRun{WallS: wall.Seconds(), GenS: gen.Seconds(),
		PeakMB: peakRSSMB(), CPUS: cpuSeconds(), Outputs: out})
}

// runReports produces every report of one pipeline.
func runReports(r *experiments.Runner) (map[string]*experiments.Report, error) {
	reps := make(map[string]*experiments.Report, len(reproIDs))
	for _, id := range reproIDs {
		rep, err := r.Run(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		reps[id] = rep
	}
	return reps, nil
}

// reproOutputsOf reduces a pipeline to the outputs that must repeat:
// the table's hash, the mean Fig 13 accuracy at 16 features and the
// mean Fig 17 multiclass accuracy, both as printed in the reports.
func reproOutputsOf(tbl *dataset.Table, reps map[string]*experiments.Report) (reproOutputs, error) {
	acc16, err := meanPctColumn(reps["fig13"], 1)
	if err != nil {
		return reproOutputs{}, err
	}
	multi, err := meanPctColumn(reps["fig17"], 1)
	if err != nil {
		return reproOutputs{}, err
	}
	return reproOutputs{TableSHA256: tableHash(tbl), Rows: tbl.NumInstances(),
		Fig13Acc16Pct: acc16, Fig17Pct: multi}, nil
}

// meanPctColumn averages a report column of "93.4%" cells.
func meanPctColumn(rep *experiments.Report, col int) (float64, error) {
	if rep == nil || len(rep.Rows) == 0 {
		return 0, fmt.Errorf("report missing or empty")
	}
	sum := 0.0
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("%s: cell %q: %w", rep.ID, row[col], err)
		}
		sum += v
	}
	return roundTo(sum/float64(len(rep.Rows)), 4), nil
}

func roundTo(v float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}

// tableHash is a SHA-256 over a table's attributes and every row's
// features, class and sample id.
func tableHash(t *dataset.Table) string {
	h := sha256.New()
	for _, a := range t.Attributes {
		io.WriteString(h, a+"\n")
	}
	var buf [8]byte
	for _, in := range t.Instances {
		for _, v := range in.Features {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(in.Class)<<32|uint64(uint32(in.SampleID)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleJob is one application sample of the dataset, with the seed
// dataset.Generate gives it.
type sampleJob struct {
	class workload.Class
	seed  uint64
	id    int
}

// datasetJobs lists the samples core.GenerateDataset runs for a seed and
// scale, in the same order and with the same seeds.
func datasetJobs(seed uint64, scale float64) []sampleJob {
	var jobs []sampleJob
	counts := workload.PaperSampleCounts()
	for _, c := range workload.AllClasses() {
		n := int(float64(counts[c])*scale + 0.5)
		if n < 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			id := len(jobs)
			jobs = append(jobs, sampleJob{class: c, seed: seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15, id: id})
		}
	}
	return jobs
}

// expectedRows is the repro dataset's size: every sample yields one row
// per sampling window.
func expectedRows() int {
	return len(datasetJobs(reproSeed, reproScale)) * trace.DefaultConfig().WindowsPerSample
}

// reproTraceConfig is the measurement configuration a zero trace.Config
// resolves to inside the trace package: paper defaults with PMU
// multiplexing off.
func reproTraceConfig() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Multiplex = false
	return cfg
}

// layerCounts are the work counts the traced repro pass adds up.
type layerCounts struct {
	instr   int64
	windows int64
}

// tracedSample is trace.CollectSample rebuilt from the public calls it
// is made of, with a span around each layer's call: workload.NewSample,
// micro.Machine.ExecuteBlock and pmu.PMU.Measure.
func tracedSample(rec *recorder, parent int64, cfg trace.Config, job sampleJob) (*trace.Trace, layerCounts, error) {
	var n layerCounts
	sp := rec.start("trace.container", parent)
	defer sp.end()
	var prog *workload.Program
	if err := rec.timed("workload.sample", sp.id, func(int64) (err error) {
		prog, err = workload.NewSample(job.class, job.seed)
		return err
	}); err != nil {
		return nil, n, err
	}
	var opts []pmu.Option
	if !cfg.Multiplex {
		opts = append(opts, pmu.WithoutMultiplexing())
	}
	unit, err := pmu.New(cfg.Events, opts...)
	if err != nil {
		return nil, n, err
	}
	machine := micro.NewMachine(cfg.Machine, job.seed^0x9e3779b97f4a7c15)
	tr := &trace.Trace{SampleName: prog.Name, Class: prog.Class, Events: unit.EventNames()}
	sliceDur := cfg.SamplePeriod / float64(cfg.SlicesPerWindow)
	for win := 0; win < cfg.WindowsPerSample; win++ {
		slices := make([]micro.Counts, cfg.SlicesPerWindow)
		for s := range slices {
			ph := prog.Current()
			trueInstr := float64(machine.WindowInstructions(sliceDur, ph.IPC))
			sim := cfg.SimInstrPerSlice
			if float64(sim) > trueInstr {
				sim = int(trueInstr)
			}
			if sim > 0 {
				ex := rec.start("micro.execute", sp.id)
				raw, err := machine.ExecuteBlock(ph.Block, sim)
				ex.end()
				if err != nil {
					return nil, n, err
				}
				n.instr += int64(sim)
				slices[s] = raw.Scaled(trueInstr / float64(sim))
			}
			prog.Advance(sliceDur)
		}
		ms := rec.start("pmu.measure", sp.id)
		readings, err := unit.Measure(slices)
		ms.end()
		if err != nil {
			return nil, n, err
		}
		n.windows++
		tr.Records = append(tr.Records, trace.Record{Window: win, Readings: readings})
	}
	return tr, n, nil
}

// tracedRepro is the repro pipeline rebuilt with spans around each
// layer: dataset generation from tracedSample, then the training,
// evaluation, PCA and synthesis calls behind Table 2 and Figs 13-19.
func tracedRepro(rec *recorder, res *result, w io.Writer) error {
	exp, err := expectedRepro()
	if err != nil {
		return err
	}
	alloc0, gc0 := memCounters()
	cfg := reproTraceConfig()
	jobs := datasetJobs(reproSeed, reproScale)
	workers := parallel.DefaultWorkers()

	gen := rec.start("dataset.generate", 0)
	type sampleOut struct {
		tr *trace.Trace
		n  layerCounts
	}
	outs, err := parallel.Map(parallel.Options{Name: "perfbench.generate", Workers: workers},
		len(jobs), func(i int) (sampleOut, error) {
			tr, n, err := tracedSample(rec, gen.id, cfg, jobs[i])
			return sampleOut{tr, n}, err
		})
	if err != nil {
		gen.end()
		return err
	}
	tbl := &dataset.Table{Attributes: append([]string(nil), outs[0].tr.Events...)}
	var counts layerCounts
	for i, o := range outs {
		counts.instr += o.n.instr
		counts.windows += o.n.windows
		for _, r := range o.tr.Records {
			tbl.Instances = append(tbl.Instances, dataset.Instance{
				Features: r.Values(), Class: jobs[i].class, SampleID: jobs[i].id})
		}
	}
	genWall := gen.end()
	if err := tbl.Validate(); err != nil {
		return err
	}

	// The rebuilt container must measure exactly what trace.CollectSample
	// does: compare the first sample of every class.
	seen := map[workload.Class]bool{}
	for i, j := range jobs {
		if seen[j.class] {
			continue
		}
		seen[j.class] = true
		want, err := trace.CollectSample(trace.Config{}, j.class, j.seed)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(outs[i].tr, want) {
			res.mismatch("rebuilt container for sample %d (%v) differs from trace.CollectSample", j.id, j.class)
		}
	}

	got, models, err := tracedExperiments(rec, tbl)
	if err != nil {
		return err
	}
	checkRepro(res, "traced pipeline", got, exp)
	res.Attempted++

	spans := rec.snapshot()
	self := selfTimes(spans)
	sampleTotal := duration(spans, "trace.container")
	alloc1, gc1 := memCounters()
	res.set("workload.sample_s", self["workload.sample"].Seconds())
	res.set("micro.execute_s", self["micro.execute"].Seconds())
	res.set("micro.instr", float64(counts.instr))
	res.set("micro.instr_per_s", float64(counts.instr)/self["micro.execute"].Seconds())
	res.set("pmu.measure_s", self["pmu.measure"].Seconds())
	res.set("pmu.windows", float64(counts.windows))
	res.set("dataset.rows", float64(tbl.NumInstances()))
	res.set("dataset.generate_s", self["dataset.generate"].Seconds())
	res.set("trace.container_s", self["trace.container"].Seconds())
	res.set("parallel.generate_busy_ratio", sampleTotal.Seconds()/(float64(workers)*genWall.Seconds()))
	res.set("ml.train_s", self["ml.train"].Seconds())
	res.set("ml.models", float64(models))
	res.set("eval.predict_s", self["eval.predict"].Seconds())
	res.set("pca.fit_s", self["pca.fit"].Seconds())
	res.set("hw.synth_s", self["hw.synth"].Seconds())
	res.set("repro.go.alloc_bytes_per_window", float64(alloc1-alloc0)/float64(tbl.NumInstances()))
	res.set("repro.go.gc_cycles", float64(gc1-gc0))
	infof(w, "traced repro: generate %.3fs over %d samples, %d models", genWall.Seconds(), len(jobs), models)
	return nil
}

// tracedExperiments repeats the work of Table 2 and Figs 13-19 as the
// experiments package does it, with spans around the ml, eval, pca and
// hw calls, and returns the outputs the untraced pipeline must match.
func tracedExperiments(rec *recorder, tbl *dataset.Table) (reproOutputs, int64, error) {
	pipe := rec.start("repro.pipeline", 0)
	defer pipe.end()
	var models int64
	var out reproOutputs
	pcaFit := func(fn func() error) error { return rec.timed("pca.fit", pipe.id, func(int64) error { return fn() }) }
	// detect is core.RunDetector split at the layer boundaries.
	detect := func(name string, feats []string, binaryTask, synth bool) (float64, error) {
		work := tbl
		if len(feats) > 0 {
			var err error
			if work, err = tbl.SelectFeatures(feats); err != nil {
				return 0, err
			}
		}
		train, test, err := work.SplitBySample(0.7, reproSeed)
		if err != nil {
			return 0, err
		}
		c, err := core.NewClassifier(name, reproSeed)
		if err != nil {
			return 0, err
		}
		k, yTrain, yTest := workload.NumClasses, train.ClassLabels(), test.ClassLabels()
		if binaryTask {
			k, yTrain, yTest = 2, train.BinaryLabels(), test.BinaryLabels()
		}
		if err := rec.timed("ml.train", pipe.id, func(int64) error {
			return c.Train(rowsOf(train), yTrain, k)
		}); err != nil {
			return 0, err
		}
		var ev *eval.Result
		if err := rec.timed("eval.predict", pipe.id, func(int64) (err error) {
			ev, err = eval.Evaluate(c, rowsOf(test), yTest, k)
			return err
		}); err != nil {
			return 0, err
		}
		if synth {
			if err := rec.timed("hw.synth", pipe.id, func(int64) error {
				_, err := core.SynthesizeTrained(c, k, len(work.Attributes))
				return err
			}); err != nil {
				return 0, err
			}
		}
		return ev.Accuracy(), nil
	}
	sweep := func(names []string, feats []string, binaryTask, synth bool) ([]float64, error) {
		models += int64(len(names))
		return parallel.Map(parallel.Options{Name: "perfbench.classifiers"}, len(names),
			func(i int) (float64, error) { return detect(names[i], feats, binaryTask, synth) })
	}

	// Table 2.
	if err := pcaFit(func() error { _, _, err := core.CustomFeatureSets(tbl, 8, 0.95); return err }); err != nil {
		return out, 0, err
	}
	// Fig 13: every binary classifier at 16, 8 and 4 features.
	var top8 []string
	if err := pcaFit(func() (err error) { top8, err = core.GlobalTopFeaturesBinary(tbl, 8, 0.95); return err }); err != nil {
		return out, 0, err
	}
	names := core.ClassifierNames()
	acc16, err := sweep(names, nil, true, false)
	if err != nil {
		return out, 0, err
	}
	for _, feats := range [][]string{top8, top8[:4]} {
		if _, err := sweep(names, feats, true, false); err != nil {
			return out, 0, err
		}
	}
	// Figs 14-16: each report retrains and synthesizes at 8 features.
	for i := 0; i < 3; i++ {
		if err := pcaFit(func() (err error) { top8, err = core.GlobalTopFeaturesBinary(tbl, 8, 0.95); return err }); err != nil {
			return out, 0, err
		}
		if _, err := sweep(names, top8, true, true); err != nil {
			return out, 0, err
		}
	}
	// Figs 17 and 18: the multiclass classifiers on all features.
	multi, err := sweep(core.MulticlassNames(), nil, false, false)
	if err != nil {
		return out, 0, err
	}
	if _, err := sweep(core.MulticlassNames(), nil, false, false); err != nil {
		return out, 0, err
	}
	// Fig 19: plain, uniform-feature and PCA-assisted MLR.
	if err := tracedFig19(rec, pipe.id, tbl, &models); err != nil {
		return out, 0, err
	}

	out = reproOutputs{TableSHA256: tableHash(tbl), Rows: tbl.NumInstances(),
		Fig13Acc16Pct: meanPct(acc16), Fig17Pct: meanPct(multi)}
	return out, models, nil
}

// tracedFig19 repeats Fig 19's three multiclass models: plain MLR on
// all features, and the one-vs-rest ensemble on a shared and on
// per-class PCA feature sets.
func tracedFig19(rec *recorder, parent int64, tbl *dataset.Table, models *int64) error {
	train, test, err := tbl.SplitBySample(0.7, reproSeed)
	if err != nil {
		return err
	}
	xTest, yTest := rowsOf(test), test.ClassLabels()
	trainAndEvaluate := func(fit func() (ml.Classifier, error)) error {
		var c ml.Classifier
		if err := rec.timed("ml.train", parent, func(int64) (err error) {
			c, err = fit()
			return err
		}); err != nil {
			return err
		}
		*models++
		return rec.timed("eval.predict", parent, func(int64) error {
			_, err := eval.Evaluate(c, xTest, yTest, workload.NumClasses)
			return err
		})
	}
	if err := trainAndEvaluate(func() (ml.Classifier, error) {
		c, err := core.NewClassifier("Logistic", reproSeed)
		if err != nil {
			return nil, err
		}
		return c, c.Train(rowsOf(train), train.ClassLabels(), workload.NumClasses)
	}); err != nil {
		return err
	}
	var global8 []string
	if err := rec.timed("pca.fit", parent, func(int64) (err error) {
		global8, err = core.GlobalTopFeatures(train, 8, 0.95)
		return err
	}); err != nil {
		return err
	}
	if err := trainAndEvaluate(func() (ml.Classifier, error) {
		return core.TrainUniformAssisted(train, global8, reproSeed)
	}); err != nil {
		return err
	}
	return trainAndEvaluate(func() (ml.Classifier, error) {
		return core.TrainPCAAssisted(train, 8, 0.95, reproSeed)
	})
}

// meanPct averages accuracies the way the reports print them: each as a
// percentage with one decimal.
func meanPct(accs []float64) float64 {
	sum := 0.0
	for _, a := range accs {
		v, _ := strconv.ParseFloat(fmt.Sprintf("%.1f", a*100), 64)
		sum += v
	}
	return roundTo(sum/float64(len(accs)), 4)
}

func rowsOf(t *dataset.Table) [][]float64 {
	rows := make([][]float64, len(t.Instances))
	for i := range t.Instances {
		rows[i] = t.Instances[i].Features
	}
	return rows
}
