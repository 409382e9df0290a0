package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// series maps a Prometheus sample's name and labels, exactly as the
// text format prints them, to its value.
type series map[string]float64

func parseProm(data []byte) series {
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func scrape(addr string) (series, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	defer cl.CloseIdleConnections()
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics on %s: status %d", addr, resp.StatusCode)
	}
	return parseProm(data), nil
}

// sum adds every sample of the family name, whatever its labels.
func (s series) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// addDelta adds after minus before, sample by sample, into s.
func (s series) addDelta(before, after series) {
	for k, v := range after {
		s[k] += v
	}
	for k, v := range before {
		s[k] -= v
	}
}

// endpoint names one label value of multisite_requests_total.
func endpoint(ep string) string {
	return fmt.Sprintf("multisite_requests_total{endpoint=%q}", ep)
}
