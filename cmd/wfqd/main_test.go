package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testConfig() config {
	return config{
		listen:  "127.0.0.1:0",
		profile: "bell",
		lanes:   2, laneCap: 256, ringSize: 32, batch: 8,
		policy: "block", discipline: "scfq",
		flows: 4, capBps: 40e9, seed: 7,
	}
}

func bootServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.shutdown() })
	return s
}

func TestFlagAndConfigErrors(t *testing.T) {
	if _, err := parsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := parseProfile("bogus"); err == nil {
		t.Fatal("bogus profile accepted")
	}
	bad := testConfig()
	bad.flows = 0
	if _, err := newServer(bad); err == nil {
		t.Fatal("zero flows accepted")
	}
	bad = testConfig()
	bad.lanes = 3
	if _, err := newServer(bad); err == nil {
		t.Fatal("non-power-of-two lanes accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := bootServer(t)
	for i := 0; i < 200; i++ {
		if _, err := s.submitPacket(i%s.cfg.flows, 64+i); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	body := httpGet(t, ts.URL+"/healthz", 200)
	if !strings.Contains(body, "ok") {
		t.Fatalf("healthz body %q", body)
	}

	body = httpGet(t, ts.URL+"/metrics", 200)
	for _, want := range []string{
		"wfqd_up 1",
		"wfqd_submitted_total",
		"wfqd_extracted_total",
		"wfqd_lane_imbalance",
		"wfqd_fabric_stall_cycles_total",
		"wfqd_ring_len{lane=\"0\"}",
		"wfqd_model_mpps",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body = httpGet(t, ts.URL+"/stats.json", 200)
	var st statsPayload
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	if st.Schema != "wfqsort/wfqd-stats/v1" || st.Flows != s.cfg.flows {
		t.Fatalf("stats payload %+v", st)
	}
	if st.Engine.Submitted != 200 {
		t.Fatalf("submitted %d", st.Engine.Submitted)
	}
}

func TestHealthzAfterShutdown(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	httpGet(t, ts.URL+"/healthz", 503)
}

func TestSyntheticWorkload(t *testing.T) {
	s := bootServer(t)
	if err := s.runSynthetic(500); err != nil {
		t.Fatal(err)
	}
	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	st := s.statsPayload()
	if st.Engine.Submitted != 500 || st.Served != 500 {
		t.Fatalf("synthetic: submitted %d served %d", st.Engine.Submitted, st.Served)
	}
	if st.Engine.Inserted != st.Engine.Extracted+st.Engine.FaultLost {
		t.Fatalf("conservation: %+v", st.Engine)
	}
}

func httpGet(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d (want %d), body %q", url, resp.StatusCode, wantCode, body)
	}
	return string(body)
}

// TestConfigValidateTable sweeps the flag edge cases that must be
// rejected before any engine state is built.
func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config)
		ok     bool
	}{
		{"defaults", func(*config) {}, true},
		{"zero ring", func(c *config) { c.ringSize = 0 }, false},
		{"negative ring", func(c *config) { c.ringSize = -4 }, false},
		{"explicit shards", func(c *config) { c.shards = 8 }, true},
		{"negative shards", func(c *config) { c.shards = -1 }, false},
		{"too many shards", func(c *config) { c.shards = 100 }, false},
		{"zero batch", func(c *config) { c.batch = 0 }, false},
		{"zero lanes", func(c *config) { c.lanes = 0 }, false},
		{"non-power-of-two lanes", func(c *config) { c.lanes = 6 }, false},
		{"too many lanes", func(c *config) { c.lanes = 128 }, false},
		{"tiny lane capacity", func(c *config) { c.laneCap = 1 }, false},
		{"zero flows", func(c *config) { c.flows = 0 }, false},
		{"zero capacity", func(c *config) { c.capBps = 0 }, false},
		{"negative synthetic", func(c *config) { c.synthetic = -1 }, false},
		{"negative rate", func(c *config) { c.rate = -5 }, false},
		{"edf discipline", func(c *config) { c.discipline = "edf" }, true},
		{"unknown discipline", func(c *config) { c.discipline = "fifo" }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestDisciplineMatrix boots the daemon under every rank program and
// proves the full submit path works: a packet is admitted, the engine
// serves it, and the discipline label reaches stats and metrics.
func TestDisciplineMatrix(t *testing.T) {
	for _, d := range []string{"scfq", "stfq", "vclock", "edf", "srpt", "lstf"} {
		t.Run(d, func(t *testing.T) {
			cfg := testConfig()
			cfg.discipline = d
			s, err := newServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				ok, err := s.submitPacket(i%cfg.flows, 64+i*37)
				if err != nil || !ok {
					t.Fatalf("submit %d under %s: ok=%v err=%v", i, d, ok, err)
				}
			}
			if err := s.shutdown(); err != nil {
				t.Fatal(err)
			}
			st := s.statsPayload()
			if st.Engine.Label != d {
				t.Fatalf("engine label %q, want %q", st.Engine.Label, d)
			}
			if st.Engine.Submitted != 32 || st.Served != 32 {
				t.Fatalf("submitted %d served %d, want 32/32", st.Engine.Submitted, st.Served)
			}
		})
	}
}

// TestReadyzLifecycle: /readyz is 503 before the first successful
// ingest, 200 once traffic has flowed on a healthy engine, and 503
// again after shutdown begins — while /healthz (liveness) stays 200
// until serving actually stops.
func TestReadyzLifecycle(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	httpGet(t, ts.URL+"/healthz", 200)
	body := httpGet(t, ts.URL+"/readyz", 503)
	if !strings.Contains(body, "no successful ingest") {
		t.Fatalf("pre-ingest readyz body %q", body)
	}

	if ok, err := s.submitPacket(0, 1500); err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	body = httpGet(t, ts.URL+"/readyz", 200)
	if !strings.Contains(body, "ready") {
		t.Fatalf("ready body %q", body)
	}

	var st statsPayload
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/stats.json", 200)), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Health != "healthy" {
		t.Fatalf("stats ready=%v health=%q", st.Ready, st.Health)
	}

	metrics := httpGet(t, ts.URL+"/metrics", 200)
	for _, want := range []string{
		"wfqd_ready 1",
		`wfqd_engine_state{state="healthy"} 1`,
		`wfqd_lane_state{lane="0",state="healthy"} 1`,
		"wfqd_quarantines_total",
		"wfqd_reinstates_total",
		"wfqd_remapped_total",
		"wfqd_drain_shed_total",
		"wfqd_watchdog_trips_total",
		"wfqd_quarantined_lanes",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	httpGet(t, ts.URL+"/readyz", 503)
	httpGet(t, ts.URL+"/healthz", 503)
}
