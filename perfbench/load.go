package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one operation.
type sample struct {
	class   class
	err     string        // empty on success
	latency time.Duration // send until the last byte of the final response
	accept  time.Duration // jobs: submit until the 202 arrived
	first   time.Duration // jobs: submit until the first result row arrived
	digest  [sha256.Size]byte
	body    []byte // kept only when the caller asks (see runLoop)
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		Timeout:       60 * time.Second,
	}
}

// clients is the closed loop's client count: one per CPU, because the
// users are scripts and CI jobs that each wait for their reply.
func clients() int { return runtime.NumCPU() }

// runLoop replays ops in order over clients() closed-loop clients, each
// taking the next unsent operation once its previous one completed.
// Samples come back in sequence order, whichever client sent them;
// keep retains each optimize response body.
func runLoop(ctx context.Context, base string, ops []op, keep bool) ([]sample, time.Duration) {
	out := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients(); c++ {
		cl := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				out[i] = do(ctx, cl, base, ops[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i := range out {
		check(&out[i], ops[i], keep)
	}
	return out, wall
}

// do performs one operation, checking only what the next request
// depends on; check validates the body after the timed loop, so the
// client spends as little CPU as it can inside the measured window.
func do(ctx context.Context, cl *http.Client, base string, o op) sample {
	s := sample{class: o.class}
	start := time.Now()
	fail := func(format string, args ...any) sample {
		s.err = fmt.Sprintf(format, args...)
		s.latency = time.Since(start)
		return s
	}
	status, body, err := post(ctx, cl, base+o.path, o.body)
	if err != nil {
		return fail("%s: %v", o.path, err)
	}
	want := http.StatusOK
	if o.class == classJob {
		s.accept = time.Since(start)
		want = http.StatusAccepted
	}
	if status != want {
		return fail("%s: status %d: %.200s", o.path, status, body)
	}
	if o.class == classJob {
		var snap struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
			return fail("job submit: no job id in %.200s", body)
		}
		status, body, err = getStream(ctx, cl, base+"/v1/jobs/"+snap.ID+"/result", func() {
			if s.first == 0 {
				s.first = time.Since(start)
			}
		})
		if err != nil {
			return fail("job result: %v", err)
		}
		if status != http.StatusOK {
			return fail("job result: status %d: %.200s", status, body)
		}
	}
	s.latency = time.Since(start)
	s.body = body
	return s
}

// check validates a successful sample's body, records its digest, and
// drops the body unless keep.
func check(s *sample, o op, keep bool) {
	if s.err == "" {
		switch o.class {
		case classOptimize:
			if !json.Valid(s.body) {
				s.err = "optimize: body is not JSON"
			}
		default:
			if err := checkRows(s.body, o.rows); err != nil {
				s.err = fmt.Sprintf("%s: %v", classNames[o.class], err)
			}
		}
		s.digest = sha256.Sum256(s.body)
	}
	if !keep || o.class != classOptimize {
		s.body = nil
	}
}

func post(ctx context.Context, cl *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getStream reads a streamed response to its end, calling firstByte
// once when the first body bytes arrive.
func getStream(ctx context.Context, cl *http.Client, url string, firstByte func()) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			if buf.Len() == 0 {
				firstByte()
			}
			buf.Write(chunk[:n])
		}
		if err == io.EOF {
			return resp.StatusCode, buf.Bytes(), nil
		}
		if err != nil {
			return resp.StatusCode, buf.Bytes(), err
		}
	}
}

// checkRows verifies an NDJSON result: want rows, each a JSON object
// with its own index and no error.
func checkRows(body []byte, want int) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	n := 0
	for sc.Scan() {
		var row struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("row %d: %v", n, err)
		}
		if row.Error != "" {
			return fmt.Errorf("row %d: %s", n, row.Error)
		}
		if row.Index != n {
			return fmt.Errorf("row %d carries index %d", n, row.Index)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%d rows, want %d", n, want)
	}
	return nil
}

// classStats summarises one class's samples.
type classStats struct {
	Attempted     int
	P50, P90, P99 float64 // ms; a failed operation counts as the whole run
	Max           float64
	AcceptP50     float64 // jobs only
	FirstRowP50   float64 // jobs only
}

func summarize(samples []sample, wall time.Duration) [numClasses]classStats {
	var out [numClasses]classStats
	var lat, acc, first [numClasses][]float64
	for _, s := range samples {
		c := s.class
		out[c].Attempted++
		l, a, f := ms(s.latency), ms(s.accept), ms(s.first)
		if s.err != "" {
			// A failure misses every latency limit.
			l, a, f = ms(wall), ms(wall), ms(wall)
		}
		lat[c] = append(lat[c], l)
		acc[c] = append(acc[c], a)
		first[c] = append(first[c], f)
	}
	for c := range out {
		if len(lat[c]) == 0 {
			continue
		}
		sort.Float64s(lat[c])
		out[c].P50 = quantile(lat[c], 0.5)
		out[c].P90 = quantile(lat[c], 0.9)
		out[c].P99 = quantile(lat[c], 0.99)
		out[c].Max = lat[c][len(lat[c])-1]
		if class(c) == classJob {
			sort.Float64s(acc[c])
			sort.Float64s(first[c])
			out[c].AcceptP50 = quantile(acc[c], 0.5)
			out[c].FirstRowP50 = quantile(first[c], 0.5)
		}
	}
	return out
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sequenceDigest is the sha256 over the per-operation body digests in
// sequence order: equal iff every response body is equal.
func sequenceDigest(samples []sample) string {
	h := sha256.New()
	for _, s := range samples {
		h.Write(s.digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
