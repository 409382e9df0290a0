package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// The expected response of every request a workload can send is
// committed in digests.json: the sha256 of the body that a single-node,
// in-memory serve built from the same commit returned for it, keyed by
// requestKey. Every run compares every response with it, so a change
// that alters response bytes fails the run in any checkout, whatever
// ran there before. After an intended change of response bytes,
// regenerate the file with
//
//	bash perfbench/run.sh --write-digests
//
//go:embed digests.json
var digestsJSON []byte

// goldenSeconds is the longest run digests.json covers: design's upload
// pool grows with the run's length (see chipRevisions), while every
// other workload sends a fixed request set.
const goldenSeconds = 20

// requestKey identifies one request by its path and body.
func requestKey(o op) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", o.path, o.body)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// referenceRequest is the synchronous request whose response body a
// correct server returns for o: a job's result stream carries exactly
// the rows of the synchronous sweep of its spec.
func referenceRequest(o op) (string, []byte) {
	if o.class == classJob {
		return "/v1/sweep", jobInner(o.body)
	}
	return o.path, o.body
}

// distinctRequests is every distinct request any workload sends in a
// run of at most goldenSeconds, whatever its seed, in a fixed order.
func distinctRequests() ([]op, error) {
	seen := map[string]bool{}
	var out []op
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1, goldenSeconds)
		if err != nil {
			return nil, err
		}
		for _, list := range [][]op{w.prepare, w.warmup, w.ops} {
			for _, o := range list {
				if k := requestKey(o); !seen[k] {
					seen[k] = true
					out = append(out, o)
				}
			}
		}
	}
	return out, nil
}

func loadDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// checkDigests compares every successful sample's body with the
// committed digest of its request. A request missing from the file is
// a violation too, so an unchecked response can never pass.
func checkDigests(ops []op, samples []sample) ([]string, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, err
	}
	var missing, differ int
	first := -1
	for i, s := range samples {
		if s.err != "" {
			continue
		}
		d, ok := want[requestKey(ops[i])]
		switch {
		case !ok:
			missing++
		case d != hex.EncodeToString(s.digest[:]):
			differ++
		default:
			continue
		}
		if first < 0 {
			first = i
		}
	}
	var bad []string
	if missing > 0 {
		bad = append(bad, fmt.Sprintf("%d responses have no committed digest in digests.json (first: op %d)", missing, first))
	}
	if differ > 0 {
		bad = append(bad, fmt.Sprintf("%d responses differ from digests.json (first: op %d, %s)", differ, first, classNames[ops[first].class]))
	}
	return bad, nil
}

// writeDigests computes the reference digest of every distinct request
// on single-node serve processes and writes them to path. Each process
// answers at most designRoundOps requests, as in a design round, since
// every chip upload stays pinned in the server.
func writeDigests(ctx context.Context, binDir, path string) error {
	reqs, err := distinctRequests()
	if err != nil {
		return err
	}
	out := map[string]string{}
	for start := 0; start < len(reqs); start += designRoundOps {
		fs, _, err := spawn(binDir, topoSingle, "")
		if err != nil {
			return err
		}
		cl := newClient()
		for _, o := range reqs[start:min(start+designRoundOps, len(reqs))] {
			p, body := referenceRequest(o)
			status, resp, err := post(ctx, cl, fs.base+p, body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, resp)
			}
			if err != nil {
				cl.CloseIdleConnections()
				fs.kill()
				return fmt.Errorf("%s: %w", p, err)
			}
			sum := sha256.Sum256(resp)
			out[requestKey(o)] = hex.EncodeToString(sum[:])
		}
		cl.CloseIdleConnections()
		fs.stop(10 * time.Second)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
