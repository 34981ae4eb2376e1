// wfqd-tcp: the daemon as a child process, fed "flow size" lines over
// loopback TCP by two closed-loop clients. The traffic crosses the
// host's loopback interface, not a real link.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"wfqsort/internal/traffic"
)

const (
	wfqdFlows   = 64
	wfqdClients = 2
	wfqdWindow  = 64      // lines each client keeps in flight
	wfqdLines   = 100_000 // per repetition, over both clients
	wfqdTimeout = 30 * time.Second
	wfqdSample  = 32
)

// buildWfqd compiles cmd/wfqd into outDir/bin. It runs before any
// timer starts; the go tool skips the link when the binary is current.
func buildWfqd(outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "wfqd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "wfqsort/cmd/wfqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build wfqd: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port by binding and
// closing: wfqd prints the ingest spec it was given, not the address it
// bound, so it cannot be started on port 0.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// wfqdProc is one running daemon.
type wfqdProc struct {
	cmd      *exec.Cmd
	httpAddr string
	ingest   string
	out      bytes.Buffer
	outDone  chan struct{}
	startupS float64
}

// startWfqd executes the daemon and waits until it accepts ingest
// connections. On any failure the child is killed and reaped.
func startWfqd(bin string) (*wfqdProc, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	ingest, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &wfqdProc{httpAddr: httpAddr, ingest: ingest, outDone: make(chan struct{})}
	p.cmd = exec.Command(bin, "-listen", httpAddr, "-ingest", "tcp:"+ingest, "-flows", fmt.Sprint(wfqdFlows))
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	listening := make(chan struct{})
	go func() {
		defer close(p.outDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.out.WriteString(line + "\n")
			if strings.HasPrefix(line, "wfqd: ingesting packets on") {
				close(listening)
			}
		}
	}()
	select {
	case <-listening:
		p.startupS = time.Since(t0).Seconds()
		return p, nil
	case <-p.outDone:
		err = errors.New("wfqd exited before listening")
	case <-time.After(wfqdTimeout):
		err = errors.New("wfqd did not start listening in time")
	}
	p.kill()
	return nil, err
}

// kill ends the child unconditionally and reaps it.
func (p *wfqdProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.outDone
	_ = p.cmd.Wait() // exit status of a killed child is not interesting
}

// wfqdStats is the part of /stats.json the benchmark reads.
type wfqdStats struct {
	Served   uint64 `json:"served"`
	Ingested uint64 `json:"ingested_lines"`
	BadLines uint64 `json:"bad_lines"`
	Engine   struct {
		MaxLaneCycles uint64
		LatencyP99Ns  float64
	} `json:"engine"`
}

func (p *wfqdProc) stats() (wfqdStats, error) {
	var st wfqdStats
	resp, err := http.Get("http://" + p.httpAddr + "/stats.json")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats.json: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// terminate sends SIGTERM, waits for the drain and returns the
// daemon's output and resource usage.
func (p *wfqdProc) terminate() (out string, ru *syscall.Rusage, drainS float64, err error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return "", nil, 0, err
	}
	timer := time.AfterFunc(wfqdTimeout, func() { _ = p.cmd.Process.Kill() })
	<-p.outDone
	werr := p.cmd.Wait()
	timer.Stop()
	drainS = time.Since(t0).Seconds()
	if werr != nil {
		return p.out.String(), nil, drainS, fmt.Errorf("wfqd exit: %w", werr)
	}
	ru, _ = p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return p.out.String(), nil, drainS, errors.New("wfqd: no resource usage from the child")
	}
	return p.out.String(), ru, drainS, nil
}

type wfqdLoad struct {
	o options
	// lines[c] is client c's script, one "flow size\n" per entry.
	lines [wfqdClients][][]byte
}

func newWfqdLoad(o options) workload { return &wfqdLoad{o: o} }

func (w *wfqdLoad) setup() error {
	per := w.o.n(wfqdLines, 4*wfqdWindow) / wfqdClients
	for c := range w.lines {
		rng := rand.New(rand.NewSource(w.o.seed*31 + int64(c)))
		w.lines[c] = make([][]byte, per)
		for i := range w.lines[c] {
			w.lines[c][i] = []byte(fmt.Sprintf("%d %d\n", rng.Intn(wfqdFlows), traffic.IMIX{}.Sample(rng)))
		}
	}
	return nil
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	ackNs   []int64
	writeNs int64
	notOK   int
	err     error
}

// runClient keeps window lines in flight on one connection: it reads
// at least one reply, takes every further reply already buffered, and
// writes that many new lines in one write call.
func runClient(addr string, lines [][]byte, client int, tr *tracer) (res clientResult) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(wfqdTimeout)); err != nil {
		res.err = err
		return res
	}
	type sent struct{ enter, leave time.Time }
	sentAt := make([]sent, len(lines))
	res.ackNs = make([]int64, 0, len(lines))
	rd := bufio.NewReaderSize(conn, 16<<10)
	var buf []byte
	next, acked := 0, 0
	write := func(k int) error {
		buf = buf[:0]
		for _, l := range lines[next : next+k] {
			buf = append(buf, l...)
		}
		a := time.Now()
		_, err := conn.Write(buf)
		b := time.Now()
		res.writeNs += b.Sub(a).Nanoseconds()
		for i := next; i < next+k; i++ {
			sentAt[i] = sent{a, b}
		}
		next += k
		return err
	}
	if err := write(min(wfqdWindow, len(lines))); err != nil {
		res.err = err
		return res
	}
	for acked < len(lines) {
		got := 0
		for got == 0 || rd.Buffered() > 0 {
			reply, err := rd.ReadSlice('\n')
			if err != nil {
				res.err = fmt.Errorf("client %d: reply %d: %w", client, acked+got, err)
				return res
			}
			if !bytes.Equal(reply, []byte("OK\n")) {
				res.notOK++
			}
			got++
		}
		now := time.Now()
		for i := acked; i < acked+got; i++ {
			res.ackNs = append(res.ackNs, now.Sub(sentAt[i].enter).Nanoseconds())
			if tr != nil && i%wfqdSample == 0 {
				tr.addTree("line", int64(client)<<32|int64(i), []string{"wfqd.write", "wfqd.ack"},
					[]time.Time{sentAt[i].enter, sentAt[i].leave, now})
			}
		}
		acked += got
		if k := min(got, len(lines)-next); k > 0 {
			if err := write(k); err != nil {
				res.err = err
				return res
			}
		}
	}
	return res
}

func (w *wfqdLoad) rep(tr *tracer) (sample, error) {
	total := wfqdClients * len(w.lines[0])
	s := sample{offered: total}
	p, err := startWfqd(w.o.wfqdBin)
	if err != nil {
		return s, err
	}
	s.setupS = p.startupS

	t0 := time.Now()
	cpu0 := cpuSeconds()
	results := make([]clientResult, wfqdClients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(p.ingest, w.lines[c], c, tr)
		}(c)
	}
	wg.Wait()
	// A line is served once the daemon's consumer has counted it; every
	// line is acknowledged by now, so this wait is the drain.
	var st wfqdStats
	for deadline := t0.Add(wfqdTimeout); ; time.Sleep(time.Millisecond) {
		if st, err = p.stats(); err != nil || st.Served >= uint64(total) {
			break
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("only %d of %d lines served in time", st.Served, total)
			break
		}
	}
	s.wallS = time.Since(t0).Seconds()
	clientCPU := cpuSeconds() - cpu0
	rssMB, rssErr := peakRSSMB(p.cmd.Process.Pid)
	out, ru, drainS, terr := p.terminate()
	for _, r := range results {
		err = errors.Join(err, r.err)
	}
	if err = errors.Join(err, rssErr, terr); err != nil {
		return s, err
	}

	var ackNs []int64
	var writeNs int64
	for _, r := range results {
		if r.notOK != 0 {
			return s, fmt.Errorf("%d lines were not answered OK", r.notOK)
		}
		ackNs = append(ackNs, r.ackNs...)
		writeNs += r.writeNs
	}
	var submitted, served uint64
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "wfqd: drained — "); ok {
			if _, err := fmt.Sscanf(rest, "submitted %d, served %d", &submitted, &served); err != nil {
				return s, fmt.Errorf("drained line %q: %w", line, err)
			}
		}
	}
	if submitted != uint64(total) || served != uint64(total) {
		return s, fmt.Errorf("sent %d lines, daemon drained submitted %d served %d", total, submitted, served)
	}
	if st.BadLines != 0 {
		return s, fmt.Errorf("daemon counted %d bad lines", st.BadLines)
	}
	s.served = total
	s.cpuS = rusageCPU(ru)
	s.childRSSMB = rssMB
	s.cycles = st.Engine.MaxLaneCycles
	q := quantilesNs(ackNs, 0.5, 0.9, 0.99)
	s.p50us, s.p90us = q[0], q[1]
	s.extra = map[string]float64{
		"latency_p99_us": q[2],
		"client_cpu_s":   clientCPU,
	}
	if tr != nil {
		s.layers = map[string]float64{
			"wfqd.ack_us_p50":        q[0],
			"wfqd.ack_us_p99":        q[2],
			"wfqd.write_ns_per_line": float64(writeNs) / float64(total),
			"wfqd.engine_p99_us":     st.Engine.LatencyP99Ns / 1e3,
			"wfqd.server_cpu_util":   s.cpuS / s.wallS,
			"wfqd.startup_ms":        p.startupS * 1e3,
			"wfqd.drain_ms":          drainS * 1e3,
		}
	}
	return s, nil
}

func (w *wfqdLoad) finish() (int, error) { return 0, nil }
