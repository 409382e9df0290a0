package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"multisite/internal/server"
	"multisite/internal/soc"
)

func TestWorkloadInputsDependOnlyOnSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.ops) != len(b.ops) {
			t.Fatalf("%s: %d ops, then %d", name, len(a.ops), len(b.ops))
		}
		for i := range a.ops {
			if a.ops[i].path != b.ops[i].path || !bytes.Equal(a.ops[i].body, b.ops[i].body) {
				t.Fatalf("%s: op %d differs between two builds from one seed", name, i)
			}
		}
	}
	explore, _ := buildWorkload("explore", 7, 1)
	fleet, _ := buildWorkload("fleet", 7, 1)
	for i := range explore.ops {
		if !bytes.Equal(explore.ops[i].body, fleet.ops[i].body) {
			t.Fatalf("fleet op %d differs from explore's", i)
		}
	}
}

func TestDesignUploadsNeverRepeatAChip(t *testing.T) {
	w, err := buildWorkload("design", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, o := range append(append([]op(nil), w.warmup...), w.ops...) {
		var req server.ScenarioRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			t.Fatal(err)
		}
		chip, err := soc.ParseString(req.SOCText)
		if err != nil {
			t.Fatal(err)
		}
		h := chip.Hash()
		if seen[h] {
			t.Fatalf("upload %d repeats an earlier chip's content hash", i)
		}
		seen[h] = true
	}
}

// TestPredictedIdle runs a short slice of every workload in-process and
// asserts that each keeps stressing what it claims to stress, that the
// /metrics deltas obey the conservation laws, and that every response
// matches digests.json.
func TestPredictedIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process servers")
	}
	slices := map[string]int{"design": 3, "explore": 300, "durable": 200, "fleet": 300}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w, err := buildWorkload(name, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			ops := w.ops[:slices[name]]
			dataDir := ""
			if w.topology == topoDurable {
				build := t.TempDir()
				template, err := prepareDurable(ctx, w, build)
				if err != nil {
					t.Fatal(err)
				}
				dataDir = filepath.Join(build, "run")
				if err := copyDir(template, dataDir); err != nil {
					t.Fatal(err)
				}
			}
			p, err := pass(ctx, w, nil, dataDir, ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range p.samples {
				if s.err != "" {
					t.Fatal(s.err)
				}
			}
			for _, v := range checkCounters(name, ops, p.counters) {
				t.Error(v)
			}
			bad, err := checkDigests(ops, p.samples)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range bad {
				t.Error(v)
			}
		})
	}
}

// TestDigestsCoverEveryRequest checks that digests.json holds exactly
// the distinct requests the workloads send, and that an in-process
// single-node server still returns the committed bytes for the fixed
// request sets and the first design uploads.
func TestDigestsCoverEveryRequest(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := distinctRequests()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range reqs {
		if _, ok := want[requestKey(o)]; !ok {
			t.Fatalf("%s request %s has no committed digest; run bash perfbench/run.sh --write-digests", o.path, requestKey(o))
		}
	}
	if len(want) != len(reqs) {
		t.Errorf("digests.json holds %d digests for %d distinct requests", len(want), len(reqs))
	}
	if testing.Short() {
		return
	}
	s, err := server.NewWithData(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	uploads := 0
	for _, o := range reqs {
		var req server.ScenarioRequest
		if json.Unmarshal(o.body, &req) == nil && req.SOCText != "" {
			// Every upload stays pinned in the process; a few suffice.
			if uploads++; uploads > 3 {
				continue
			}
		}
		path, body := referenceRequest(o)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[requestKey(o)] {
			t.Errorf("%s %s: response digest %s, committed %s", path, requestKey(o), got, want[requestKey(o)])
		}
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestParseProm(t *testing.T) {
	s := parseProm([]byte("# HELP x\nmultisite_requests_total{endpoint=\"optimize\"} 3\nmultisite_requests_total{endpoint=\"sweep\"} 4\nmultisite_cache_hits_total 9\n"))
	if got := s.sum("multisite_requests_total"); got != 7 {
		t.Fatalf("sum = %v, want 7", got)
	}
	if got := s[endpoint("sweep")]; got != 4 {
		t.Fatalf("sweep = %v, want 4", got)
	}
}
