package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"debug/elf"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp identifies where and on what a record was measured; records
// with different stamps or seeds are never compared.
type envStamp struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Seed       int64             `json:"seed"`
	BuildIDs   map[string]string `json:"build_ids,omitempty"`
}

func stamp(seed int64, binDir string, bins ...string) envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel(),
		Seed:       seed,
		BuildIDs:   map[string]string{},
	}
	for _, b := range bins {
		path := filepath.Join(binDir, b)
		if info, err := buildinfo.ReadFile(path); err == nil {
			e.GoVersion = info.GoVersion
		}
		e.BuildIDs[b] = goBuildID(path)
	}
	return e
}

func kernel() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// goBuildID reads the Go build ID note the linker writes into an ELF
// binary (what `go tool buildid` prints).
func goBuildID(path string) string {
	f, err := elf.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return "unknown"
	}
	data, err := sec.Data()
	if err != nil || len(data) < 16 {
		return "unknown"
	}
	// Note layout: namesz, descsz, type, then name "Go\0\0" and desc.
	namesz := binary.LittleEndian.Uint32(data[0:4])
	descsz := binary.LittleEndian.Uint32(data[4:8])
	off := 12 + (namesz+3)&^3
	if int(off+descsz) > len(data) {
		return "unknown"
	}
	return string(data[off : off+descsz])
}

// calibration is the time of two fixed loops in this process, taken
// beside each round so a slower or faster host shows in the record; no
// metric is scaled by them. hash is sha256 over 16 MiB (core speed);
// walk is a dependent random walk of 1M steps over 32 MiB, larger than
// a core's private caches (memory latency).
type calibration struct{ hash, walk time.Duration }

// walkRing is the walk's permutation, one cycle through all its slots
// (Sattolo's shuffle).
func walkRing() []uint32 {
	ring := make([]uint32, 8<<20) // 4-byte slots: 32 MiB
	for i := range ring {
		ring[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

func calibrate(ring []uint32) calibration {
	var c calibration
	buf := make([]byte, 64<<10)
	start := time.Now()
	for i := 0; i < 256; i++ {
		buf[0] = byte(i)
		sum := sha256.Sum256(buf)
		buf[1] = sum[0]
	}
	c.hash = time.Since(start)
	start = time.Now()
	j := uint32(0)
	for i := 0; i < 1<<20; i++ {
		j = ring[j]
	}
	c.walk = time.Since(start)
	walkSink = j
	return c
}

var walkSink uint32

// hostCPU is the machine-wide CPU time counters of /proc/stat, in ticks.
type hostCPU struct{ total, idle, steal int64 }

// hostShare is the idle and steal share of all CPUs over an interval.
type hostShare struct{ idle, steal float64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice]
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		h.total += n
		switch i {
		case 3, 4:
			h.idle += n
		case 7:
			h.steal = n
		}
	}
	return h, nil
}

func (h hostCPU) since(before hostCPU) hostShare {
	t := float64(h.total - before.total)
	if t <= 0 {
		return hostShare{}
	}
	return hostShare{idle: float64(h.idle-before.idle) / t, steal: float64(h.steal-before.steal) / t}
}
