package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/cachekey"
	"multisite/internal/core"
	"multisite/internal/diskcache"
	"multisite/internal/resultcache"
	"multisite/internal/server"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/wrapper"
)

// replayItems bounds how many distinct optimize inputs the isolated
// replays time; cold chip uploads cost tens of milliseconds each.
const replayItems = 8

// hitBatch is how many result-cache hits one timing covers, so the
// clock's resolution does not dominate a sub-microsecond operation.
const hitBatch = 1000

// replayLayers times each layer's public function on the traced slice's
// own optimize inputs, in this process and after the passes, so the
// replays never share a measured process. Named chips are timed as the
// server meets them (their wrapper tables already warm); uploads are
// parsed fresh and build their tables cold, as the server does.
func replayLayers(ctx context.Context, ops []op, samples []sample, runDir string) (map[string]metric, error) {
	type item struct {
		text  string
		named *soc.SOC
		cfg   core.Config
		body  []byte
	}
	var items []item
	seen := map[string]bool{}
	for i, o := range ops {
		if o.class != classOptimize || seen[string(o.body)] || len(items) == replayItems {
			continue
		}
		seen[string(o.body)] = true
		var req server.ScenarioRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		it := item{text: req.SOCText, cfg: req.Config(), body: samples[i].body}
		if req.SOC != "" {
			it.named = benchdata.Shared(req.SOC)
			it.text = soc.WriteString(it.named)
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("no optimize inputs to replay")
	}

	dir := filepath.Join(runDir, "replay-cas")
	disk, err := diskcache.Open(diskcache.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache := resultcache.New(resultcache.Options{})

	var parse, tables, step12, hit, snap, put, get []float64
	for i, it := range items {
		start := time.Now()
		chip, err := soc.ParseString(it.text)
		if err != nil {
			return nil, err
		}
		hash := chip.Hash()
		parse = append(parse, float64(time.Since(start).Nanoseconds())/1e3)
		if it.named != nil {
			chip = it.named
		}

		start = time.Now()
		d := wrapper.For(chip)
		for mi := range chip.Modules {
			d.TimeTable(mi)
		}
		tables = append(tables, ms(time.Since(start)))

		start = time.Now()
		if _, err := solve.Solve(ctx, solve.DefaultName, chip, it.cfg); err != nil {
			return nil, err
		}
		step12 = append(step12, ms(time.Since(start)))

		key := cachekey.Scenario(hash, solve.DefaultName, it.cfg)
		fill := func(context.Context) ([]byte, bool, error) { return it.body, true, nil }
		if _, _, err := cache.DoCond(ctx, key, fill); err != nil {
			return nil, err
		}
		start = time.Now()
		for j := 0; j < hitBatch; j++ {
			cache.DoCond(ctx, key, fill)
		}
		hit = append(hit, float64(time.Since(start).Nanoseconds())/1e3/hitBatch)

		start = time.Now()
		if _, err := core.ParseSnapshot(it.body); err != nil {
			return nil, fmt.Errorf("replaying item %d: %v", i, err)
		}
		snap = append(snap, float64(time.Since(start).Nanoseconds())/1e3)

		start = time.Now()
		if err := disk.Put(key, it.body); err != nil {
			return nil, err
		}
		put = append(put, ms(time.Since(start)))
		start = time.Now()
		if _, ok := disk.Get(key); !ok {
			return nil, fmt.Errorf("replaying item %d: disk cache lost a fresh entry", i)
		}
		get = append(get, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return map[string]metric{
		"soc.parse_hash_us":      {median(parse), "us"},
		"wrapper.tables_ms":      {median(tables), "ms"},
		"core.step12_ms":         {median(step12), "ms"},
		"resultcache.hit_us":     {median(hit), "us"},
		"core.snapshot_parse_us": {median(snap), "us"},
		"diskcache.put_ms":       {median(put), "ms"},
		"diskcache.get_us":       {median(get), "us"},
	}, nil
}
