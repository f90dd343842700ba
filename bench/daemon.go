package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const collName = "bench"

// live tracks what must not outlive the harness: child daemons and scratch
// directories. cleanup runs on every exit path (normal return, fatal, signal).
var live struct {
	sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

func cleanup() {
	live.Lock()
	defer live.Unlock()
	for d := range live.daemons {
		d.cmd.Process.Kill()
		<-d.exited
		os.Remove(d.log.Name())
	}
	live.daemons = nil
	for _, dir := range live.dirs {
		os.RemoveAll(dir)
	}
	live.dirs = nil
}

// scratchDir makes a directory under root that cleanup removes.
func scratchDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	live.Lock()
	live.dirs = append(live.dirs, dir)
	live.Unlock()
	return dir, nil
}

// daemon is one gbkmvd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	base    string // http://addr
	dataDir string
	log     *os.File
	exited  chan struct{}
}

// startDaemon spawns bin with default flags except -addr and -data, and
// returns once /readyz answers 200.
func startDaemon(bin, dataDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(dataDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, base: "http://" + addr, dataDir: dataDir, log: logf, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-data", dataDir)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The child dies with the harness even if the harness is SIGKILLed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	live.Lock()
	if live.daemons == nil {
		live.daemons = map[*daemon]struct{}{}
	}
	live.daemons[d] = struct{}{}
	live.Unlock()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("gbkmvd exited during start-up; log:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("gbkmvd not ready after 60s; log:\n%s", d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop signals the child and waits until it has ended.
func (d *daemon) stop(sig syscall.Signal) {
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	os.Remove(d.log.Name())
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// hwmMB reads the child's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) { return procHWM(d.cmd.Process.Pid) }

func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds is the CPU time (user + system) the child has used so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 1/100 s.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", d.cmd.Process.Pid)
	}
	return (utime + stime) / 100, nil
}

// call makes one control-plane request (build, stats, snapshot, metrics)
// through net/http; the measured requests go through rawConn instead.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// collStats is the part of GET /collections/{name}/stats the harness reads.
type collStats struct {
	NumRecords int     `json:"num_records"`
	SizeBytes  int     `json:"size_bytes"`
	Tau        float64 `json:"tau"`
	BufferBits int     `json:"buffer_bits"`
	Segments   *struct {
		Count int     `json:"count"`
		Skew  float64 `json:"skew"`
	} `json:"segments"`
}

func (d *daemon) stats() (collStats, error) {
	var st collStats
	b, err := d.call("GET", "/collections/"+collName+"/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// promSnapshot is one scrape of GET /metrics: series text → value.
type promSnapshot map[string]float64

func (d *daemon) scrape() (promSnapshot, error) {
	b, err := d.call("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
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
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// sum adds every series of a family.
func (s promSnapshot) sum(family string) float64 {
	t := 0.0
	for k, v := range s {
		if name, _, _ := strings.Cut(k, "{"); name == family {
			t += v
		}
	}
	return t
}

// delta is how far a counter family moved since before. The stores the
// harness scrapes hold only its own collections, so families are summed over
// all their series.
func (s promSnapshot) delta(before promSnapshot, family string) float64 {
	return s.sum(family) - before.sum(family)
}

// histQuantile reads the q-quantile of a histogram family from the
// difference of two scrapes, interpolating inside the bucket like
// obs.Snapshot.Quantile does.
func histQuantile(before, after promSnapshot, family string, q float64) float64 {
	byLE := map[float64]float64{}
	for k, v := range after {
		name, labels, _ := strings.Cut(k, "{")
		if name != family+"_bucket" {
			continue
		}
		_, le, _ := strings.Cut(labels, `le="`)
		bound, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(le, "}"), `"`), 64)
		if err != nil {
			continue // +Inf
		}
		byLE[bound] += v - before[k]
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	for le, n := range byLE {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	want := q * bs[len(bs)-1].n
	lo, seen := 0.0, 0.0
	for _, b := range bs {
		if b.n >= want {
			if b.n == seen {
				return b.le
			}
			return lo + (b.le-lo)*(want-seen)/(b.n-seen)
		}
		lo, seen = b.le, b.n
	}
	return bs[len(bs)-1].le
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
