package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// templateVersion names the layout of prepared data dirs; bump it when
// the durable key set changes so stale templates are not reused.
const templateVersion = 3

// prepareDurable builds the durable workload's data dir once (its key
// set does not depend on the seed):
// an in-process server over the dir computes every key of the set and
// runs every sweep job to completion, then drains, fsyncing its
// journal, as serve does on SIGTERM. Runs start from copies of it, so
// every run replays the same journal over the same disk cache.
func prepareDurable(ctx context.Context, w *workload, buildDir string) (string, error) {
	dir := filepath.Join(buildDir, "durable", fmt.Sprintf("v%d", templateVersion))
	if _, err := os.Stat(filepath.Join(dir, "ready")); err == nil {
		return dir, nil
	}
	tmp := dir + fmt.Sprintf(".tmp%d", os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	st, err := buildStack(topoDurable, nil, tmp)
	if err != nil {
		return "", err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, o := range w.prepare {
		s := do(ctx, cl, st.base, o)
		if check(&s, o, false); s.err != "" {
			st.close()
			return "", fmt.Errorf("preparing durable data: %s", s.err)
		}
	}
	st.close()
	if err := os.WriteFile(filepath.Join(tmp, "ready"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// jobInner extracts the synchronous request body of a job submission.
func jobInner(body []byte) []byte {
	var req struct {
		Request json.RawMessage `json:"request"`
	}
	if json.Unmarshal(body, &req) != nil {
		return nil
	}
	return req.Request
}
