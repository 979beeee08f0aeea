package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ingest"
)

// TestTracedHandlerMatchesService sends the same valid and malformed
// bodies to the service's handler and to the traced run's copy of it, and
// requires the same status code from both, so the decode span keeps
// timing what the service does.
func TestTracedHandlerMatchesService(t *testing.T) {
	f, err := newFixture(1, httpTraffic)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	valid := string(f.bodies[0])
	window := func(values string, extra string) string {
		return `{"windows": [{"endpoint": "ep-00", "values": ` + values + extra + `}]}`
	}
	raw, _ := json.Marshal(f.batches[0][0].Values)
	values := string(raw)
	many, _ := json.Marshal(ingest.Batch{Windows: make([]ingest.Window, maxBatchWindows+1)})
	cases := []struct {
		name, tenant, query, body string
		want                      int
	}{
		{"valid", "tenant-00", "", valid, http.StatusAccepted},
		{"tenant in query", "", "tenant-01", valid, http.StatusAccepted},
		{"tenant in body", "", "", `{"tenant": "t.1", "windows": [{"values": ` + values + `}]}`, http.StatusAccepted},
		{"drop-oldest", "tenant-02", "", `{"overflow": "drop_oldest", "windows": [{"values": ` + values + `}]}`, http.StatusAccepted},
		{"leading dash tenant", "-t_1", "", valid, http.StatusAccepted},
		{"no tenant", "", "", valid, http.StatusBadRequest},
		{"invalid tenant", "bad tenant!", "", valid, http.StatusBadRequest},
		{"header vs query", "tenant-00", "tenant-01", valid, http.StatusBadRequest},
		{"header vs body", "tenant-00", "", `{"tenant": "tenant-01", "windows": [{"values": ` + values + `}]}`, http.StatusBadRequest},
		{"not json", "tenant-00", "", `{"windows": [`, http.StatusBadRequest},
		{"unknown field", "tenant-00", "", `{"windows": [], "extra": 1}`, http.StatusBadRequest},
		{"trailing data", "tenant-00", "", valid + valid, http.StatusBadRequest},
		{"no windows", "tenant-00", "", `{"windows": []}`, http.StatusBadRequest},
		{"unknown overflow", "tenant-00", "", `{"overflow": "spill", "windows": [{"values": ` + values + `}]}`, http.StatusBadRequest},
		{"too many windows", "tenant-00", "", string(many), http.StatusBadRequest},
		{"wrong dimension", "tenant-00", "", window("[1, 2]", ""), http.StatusBadRequest},
		{"string value", "tenant-00", "", window(`["1"]`, ""), http.StatusBadRequest},
		{"label outside {0,1}", "tenant-00", "", window(values, `, "label": 2`), http.StatusBadRequest},
		{"long endpoint", "tenant-00", "", `{"windows": [{"endpoint": "` + strings.Repeat("e", 129) + `", "values": ` + values + `}]}`, http.StatusBadRequest},
	}
	handlers := map[string]http.Handler{
		"service": f.svc.Handler(),
		"traced":  &tracedHandler{rec: newRecorder(), svc: f.svc, dim: len(f.events)},
	}
	for _, c := range cases {
		for name, h := range handlers {
			target := "/api/v1/ingest"
			if c.query != "" {
				target += "?tenant=" + c.query
			}
			req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(c.body))
			req.Header.Set("Content-Type", "application/json")
			if c.tenant != "" {
				req.Header.Set(ingest.TenantHeader, c.tenant)
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != c.want {
				t.Errorf("%s: %s handler answered %d, want %d: %s", c.name, name, rr.Code, c.want, rr.Body)
			}
		}
	}
	if _, err := waitDrained(f.svc); err != nil {
		t.Fatal(err)
	}
}
