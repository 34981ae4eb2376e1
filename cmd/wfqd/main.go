// Command wfqd is the line-rate serving daemon built on internal/engine:
// a long-running process that admits flows through internal/admission,
// ranks their packets with a pluggable rank program (-discipline:
// SCFQ virtual time by default, or STFQ, VirtualClock, EDF, SRPT,
// LSTF), submits them to the sharded sort/retrieve engine, and exposes
// live observability over HTTP — GET /metrics (text exposition of engine, lane-balance,
// fault-domain, and memory-fabric gauges), /healthz (liveness),
// /readyz (readiness), and /stats.json.
//
// Work arrives three ways, combinable:
//
//   - -trace file.csv   replay an arrival trace (internal/trace format)
//   - -synthetic N      generate N packets of Fig. 6 synthetic load
//   - -ingest tcp:addr | unix:path
//     accept "flow size_bytes" lines over a socket
//
// Quickstart (see README):
//
//	wfqd -synthetic 100000 -listen 127.0.0.1:8080 &
//	curl -s http://127.0.0.1:8080/metrics
//
//wfqlint:ignore-file determinism wfqd is the wall-clock serving daemon: uptime, socket deadlines, and replay pacing are real time by design (DESIGN.md §11)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode"
	"unicode/utf8"

	"wfqsort/internal/admission"
	"wfqsort/internal/engine"
	"wfqsort/internal/packet"
	"wfqsort/internal/police"
	"wfqsort/internal/rank"
	"wfqsort/internal/trace"
	"wfqsort/internal/traffic"
)

type config struct {
	listen     string
	ingest     string
	traceFile  string
	synthetic  int
	profile    string
	lanes      int
	laneCap    int
	ringSize   int
	shards     int
	batch      int
	policy     string
	discipline string
	flows      int
	capBps     float64
	seed       int64
	rate       float64
	linger     bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("wfqd", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8080", "HTTP observability address")
	fs.StringVar(&c.ingest, "ingest", "", "packet ingest socket: tcp:host:port or unix:/path")
	fs.StringVar(&c.traceFile, "trace", "", "arrival trace CSV to replay (internal/trace format)")
	fs.IntVar(&c.synthetic, "synthetic", 0, "generate N synthetic packets (Fig. 6 tag profiles)")
	fs.StringVar(&c.profile, "profile", "bell", "synthetic tag profile: bell|left|uniform")
	fs.IntVar(&c.lanes, "lanes", 4, "sorter lanes (power of two, 1..64)")
	fs.IntVar(&c.laneCap, "lane-capacity", 1024, "tag-store links per lane")
	fs.IntVar(&c.ringSize, "ring", 256, "per-lane submission ring depth")
	fs.IntVar(&c.shards, "shards", 0, "SPSC shards per lane's submission ring (1..64, 0 = engine default)")
	fs.IntVar(&c.batch, "batch", 64, "drain batch size")
	fs.StringVar(&c.policy, "policy", "block", "backpressure policy: block|drop-tail|red")
	fs.StringVar(&c.discipline, "discipline", "scfq",
		"rank program driving the tagger: scfq|stfq|vclock|edf|srpt|lstf (edf/lstf use a uniform 10ms per-flow deadline/slack budget)")
	fs.IntVar(&c.flows, "flows", 8, "admission-controlled flows")
	fs.Float64Var(&c.capBps, "capacity-bps", 40e9, "modelled link capacity for WFQ tagging")
	fs.Int64Var(&c.seed, "seed", 1, "synthetic load seed")
	fs.Float64Var(&c.rate, "rate", 0, "synthetic packets/sec (0 = full speed)")
	fs.BoolVar(&c.linger, "linger", false, "keep serving HTTP after finite work completes")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, nil
}

// validate rejects flag combinations that would misbehave at runtime,
// with documented errors, before any engine state is built: a
// zero-capacity submission ring or batch would wedge the datapath, and
// non-positive lane/flow/capacity settings have no meaningful serving
// interpretation.
func (c config) validate() error {
	if c.lanes < 1 || c.lanes > 64 || c.lanes&(c.lanes-1) != 0 {
		return fmt.Errorf("wfqd: -lanes %d must be a power of two in 1..64", c.lanes)
	}
	if c.laneCap < 2 {
		return fmt.Errorf("wfqd: -lane-capacity %d must be at least 2", c.laneCap)
	}
	if c.ringSize < 1 {
		return fmt.Errorf("wfqd: -ring %d is a zero-capacity submission ring; it must be at least 1", c.ringSize)
	}
	if c.shards < 0 || c.shards > 64 {
		return fmt.Errorf("wfqd: -shards %d must be in 0..64 (0 = engine default)", c.shards)
	}
	if c.batch < 1 {
		return fmt.Errorf("wfqd: -batch %d must be at least 1", c.batch)
	}
	if c.flows < 1 {
		return fmt.Errorf("wfqd: -flows %d must be positive", c.flows)
	}
	if c.capBps <= 0 {
		return fmt.Errorf("wfqd: -capacity-bps %g must be positive", c.capBps)
	}
	switch c.discipline {
	case "scfq", "stfq", "vclock", "edf", "srpt", "lstf":
	default:
		return fmt.Errorf("wfqd: unknown discipline %q (scfq|stfq|vclock|edf|srpt|lstf)", c.discipline)
	}
	if c.synthetic < 0 {
		return fmt.Errorf("wfqd: -synthetic %d must be non-negative", c.synthetic)
	}
	if c.rate < 0 {
		return fmt.Errorf("wfqd: -rate %g must be non-negative", c.rate)
	}
	return nil
}

func parsePolicy(s string) (engine.Policy, error) {
	switch s {
	case "block":
		return engine.PolicyBlock, nil
	case "drop-tail":
		return engine.PolicyDropTail, nil
	case "red":
		return engine.PolicyRED, nil
	default:
		return 0, fmt.Errorf("wfqd: unknown policy %q (block|drop-tail|red)", s)
	}
}

func parseProfile(s string) (traffic.TagProfile, error) {
	switch s {
	case "bell":
		return traffic.ProfileBell, nil
	case "left":
		return traffic.ProfileLeftWeighted, nil
	case "uniform":
		return traffic.ProfileUniform, nil
	default:
		return 0, fmt.Errorf("wfqd: unknown profile %q (bell|left|uniform)", s)
	}
}

// server owns the engine, the flow control plane, and the HTTP surface.
// It is constructed separately from main so tests can drive it through
// httptest without sockets or signals.
type server struct {
	cfg     config
	eng     *engine.Engine
	ctrl    *admission.Controller
	prog    rank.Program
	gran    float64
	start   time.Time
	served  atomic.Uint64
	ingests atomic.Uint64 // lines answered OK
	runs    atomic.Uint64 // runs that carried at least one of them: ingests/runs is the mean batch
	badLine atomic.Uint64
	healthy atomic.Bool
	// ingested flips on the first successfully admitted packet:
	// readiness requires proof the whole submit path works end to end.
	ingested atomic.Bool

	mu       sync.Mutex
	progLock sync.Mutex
	consumer sync.WaitGroup

	// Ingest-socket lifecycle: ingestWG joins the accept loop and every
	// connection goroutine; conns tracks live connections so shutdown
	// can sever them instead of waiting out idle clients.
	ingestWG sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
}

// trackConn registers a live ingest connection for shutdown teardown.
func (s *server) trackConn(conn net.Conn) {
	s.connMu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

// untrackConn forgets a finished ingest connection.
func (s *server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// closeConns severs every live ingest connection, unblocking their
// serve goroutines so ingestWG.Wait can return.
func (s *server) closeConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

func newServer(cfg config) (*server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pol, err := parsePolicy(cfg.policy)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Lanes:         cfg.lanes,
		LaneCapacity:  cfg.laneCap,
		RingSize:      cfg.ringSize,
		Shards:        cfg.shards,
		BatchSize:     cfg.batch,
		Policy:        pol,
		RecoverFaults: true,
		Label:         cfg.discipline,
	})
	if err != nil {
		return nil, err
	}
	// Admission control plane: each flow declares an equal share of the
	// modelled link; the granted WFQ weights drive the rank program.
	ctrl, err := admission.NewController(cfg.capBps, 0.95, 1500)
	if err != nil {
		return nil, err
	}
	share := cfg.capBps * 0.9 / float64(cfg.flows)
	for f := 0; f < cfg.flows; f++ {
		_, err := ctrl.Admit(admission.Request{
			Name:   fmt.Sprintf("flow-%d", f),
			Bucket: police.Bucket{RateBps: share, BurstBits: 12000},
		})
		if err != nil {
			return nil, fmt.Errorf("wfqd: admitting flow %d: %w", f, err)
		}
	}
	prog, err := newProgram(cfg.discipline, ctrl.Weights(), cfg.capBps)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:  cfg,
		eng:  eng,
		ctrl: ctrl,
		prog: prog,
		// Tag granularity: one minimum-size packet at the full link rate
		// maps to one tag step, so a flow at its granted share advances
		// a few steps per packet and the tag space wraps gracefully
		// through the eager-mode lanes.
		gran:  (64 * 8) / cfg.capBps,
		start: time.Now(),
	}
	return s, nil
}

// run starts the engine and the discard consumer.
func (s *server) run() error {
	if err := s.eng.Start(); err != nil {
		return err
	}
	s.healthy.Store(true)
	s.consumer.Add(1)
	go func() {
		defer s.consumer.Done()
		for range s.eng.Served() {
			s.served.Add(1)
		}
	}()
	return nil
}

// shutdown severs ingest connections, drains the engine, and waits for
// the consumer and every ingest goroutine. The caller closes the ingest
// listener first, so the accept loop is already on its way out.
func (s *server) shutdown() error {
	s.healthy.Store(false)
	s.closeConns()
	err := s.eng.Stop()
	s.consumer.Wait()
	s.ingestWG.Wait()
	return err
}

// newProgram builds the rank program selected by -discipline over the
// admission-granted weight vector. EDF and LSTF get a uniform 10ms
// per-flow deadline / slack budget: the daemon has no per-flow SLA
// plane, so every flow carries the same latency objective.
func newProgram(discipline string, weights []float64, capBps float64) (rank.Program, error) {
	uniform := func(v float64) []float64 {
		b := make([]float64, len(weights))
		for i := range b {
			b[i] = v
		}
		return b
	}
	switch discipline {
	case "scfq":
		return rank.NewSCFQ(weights, capBps)
	case "stfq":
		return rank.NewSTFQ(weights, capBps)
	case "vclock":
		return rank.NewVirtualClock(weights, capBps)
	case "edf":
		return rank.NewEDF(uniform(0.010))
	case "srpt":
		return rank.NewSRPT(len(weights))
	case "lstf":
		return rank.NewLSTF(uniform(0.010), capBps)
	default:
		return nil, fmt.Errorf("wfqd: unknown discipline %q (scfq|stfq|vclock|edf|srpt|lstf)", discipline)
	}
}

// maxRun caps the arrivals ranked under one progLock hold and handed to
// the engine as one batch, which bounds a connection's scratch and how
// long it keeps other connections off the rank program.
const maxRun = 1024

// ingestRun is the unit of ingest work: the arrivals one socket read, one
// trace chunk or one submitPacket call delivered. submitRun ranks them
// under one progLock hold at one arrival instant and hands them to the
// engine as one SubmitBatch. The slices are one goroutine's scratch,
// allocated once by newRun and reused run after run.
type ingestRun struct {
	flows, sizes []int  // the arrivals, in arrival order
	tags         []int  // their quantized ranks, written by submitRun
	admitted     []bool // the engine's verdict on each, written by submitRun
}

func newRun(capacity int) ingestRun {
	return ingestRun{
		flows:    make([]int, 0, capacity),
		sizes:    make([]int, 0, capacity),
		tags:     make([]int, capacity),
		admitted: make([]bool, capacity),
	}
}

func (r *ingestRun) add(flow, size int) {
	r.flows = append(r.flows, flow)
	r.sizes = append(r.sizes, size)
}

func (r *ingestRun) full() bool { return len(r.flows) == cap(r.flows) }

func (r *ingestRun) reset() { r.flows, r.sizes = r.flows[:0], r.sizes[:0] }

// from returns the run's arrivals from index i on, over the same scratch.
func (r ingestRun) from(i int) ingestRun {
	return ingestRun{flows: r.flows[i:], sizes: r.sizes[i:], tags: r.tags[i:], admitted: r.admitted[i:]}
}

// submitRun validates and ranks r's arrivals with the configured rank
// program, quantizes each rank into the sorter's tag space, and submits
// them as one engine batch. It stops at the first arrival that fails —
// a flow or size out of range, a rank error, an engine error — and
// returns that error with done, the number of arrivals before it;
// r.admitted[i] for i < done says whether the engine admitted arrival i
// or its policy shed it. The program is self-clocked: OnServe fires at
// submission, arrival by arrival, matching the pre-seam SCFQ
// Tag-then-Serve behaviour — the engine's merge stage, not the program,
// orders actual departures. Safe for concurrent ingest paths, each with
// its own run.
func (s *server) submitRun(r ingestRun) (done int, err error) {
	tagRange := s.eng.TagRange()
	now := time.Since(s.start).Seconds()
	ranked := 0
	s.progLock.Lock()
	for ; ranked < len(r.flows); ranked++ {
		flow, size := r.flows[ranked], r.sizes[ranked]
		if flow < 0 || flow >= s.cfg.flows {
			err = fmt.Errorf("wfqd: flow %d outside [0,%d)", flow, s.cfg.flows)
			break
		}
		if size <= 0 {
			err = fmt.Errorf("wfqd: size %d must be positive", size)
			break
		}
		p := packet.Packet{Flow: flow, Size: size, Arrival: now}
		var rk rank.Ranked
		if rk, err = s.prog.Rank(p, now); err != nil {
			break
		}
		s.prog.OnServe(p, rk, now)
		tag := int(rk.Rank/s.gran+0.5) % tagRange
		if tag < 0 {
			// LSTF slack can go negative for an already-late packet: wrap
			// into the tag space the same way the modulo wraps large ranks.
			tag += tagRange
		}
		r.tags[ranked] = tag
	}
	s.progLock.Unlock()
	if ranked == 0 {
		return 0, err
	}
	done, serr := s.eng.SubmitBatch(r.tags[:ranked], r.flows[:ranked], r.admitted[:ranked])
	if !s.ingested.Load() {
		for _, ok := range r.admitted[:done] {
			if ok {
				s.ingested.Store(true)
				break
			}
		}
	}
	if serr != nil {
		return done, serr
	}
	return done, err
}

// submitPacket is the run of one arrival: rank, quantize and submit
// (flow, sizeBytes), reporting whether the engine admitted it.
func (s *server) submitPacket(flow, sizeBytes int) (bool, error) {
	r := newRun(1)
	r.add(flow, sizeBytes)
	if _, err := s.submitRun(r); err != nil {
		return false, err
	}
	return r.admitted[0], nil
}

// submitTag submits a pre-computed tag (synthetic load path) and records
// the first successfully admitted packet, the readiness gate.
func (s *server) submitTag(tag, payload int) (bool, error) {
	ok, err := s.eng.Submit(tag, payload)
	if ok && err == nil {
		s.ingested.Store(true)
	}
	return ok, err
}

// runSynthetic generates n packets with the configured Fig. 6 profile.
func (s *server) runSynthetic(n int) error {
	prof, err := parseProfile(s.cfg.profile)
	if err != nil {
		return err
	}
	gen, err := traffic.NewTagGen(prof, s.cfg.seed)
	if err != nil {
		return err
	}
	var tick *time.Ticker
	if s.cfg.rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / s.cfg.rate))
		defer tick.Stop()
	}
	for i := 0; i < n; i++ {
		if tick != nil {
			<-tick.C
		}
		if _, err := s.submitTag(gen.Sample(0, s.eng.TagRange()-1), i); err != nil {
			return err
		}
	}
	return nil
}

// runTrace replays an arrival trace through the WFQ tagger.
func (s *server) runTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pkts, err := trace.ReadArrivals(f)
	if err != nil {
		return err
	}
	r := newRun(maxRun)
	for base := 0; base < len(pkts); base += len(r.flows) {
		r.reset()
		for _, p := range pkts[base:min(base+maxRun, len(pkts))] {
			r.add(p.Flow%s.cfg.flows, p.Size)
		}
		if done, err := s.submitRun(r); err != nil {
			return fmt.Errorf("wfqd: packet %d: %w", pkts[base+done].ID, err)
		}
	}
	return nil
}

// Ingest line grammar (README, socket ingest): parseLine accepts and
// rejects exactly the lines that fmt's "%d %d" scan of the trimmed line
// did in the per-line loop, and yields the same two integers
// (parse_test.go holds that reference).
var (
	errNoArrival  = errors.New("blank or comment line") // never sent: such a line gets no reply
	errLineSyntax = errors.New(`want "flow size_bytes"`)
	errIntRange   = errors.New("integer out of range")
	errLineLength = errors.New("line too long")
)

// skipSpace drops the leading white space of b: Unicode's White_Space
// set, which is both what strings.TrimSpace trims and what fmt skips.
func skipSpace(b []byte) []byte {
	for len(b) > 0 {
		c := b[0]
		switch {
		case c == ' ' || ('\t' <= c && c <= '\r'):
			b = b[1:]
		case c < utf8.RuneSelf:
			return b
		default:
			r, n := utf8.DecodeRune(b)
			if !unicode.IsSpace(r) {
				return b
			}
			b = b[n:]
		}
	}
	return b
}

// scanInt reads fmt's %d from the front of b: optional white space, an
// optional sign, one or more ASCII digits. A value outside int is an
// error, never a wrap.
func scanInt(b []byte) (v int, rest []byte, err error) {
	b = skipSpace(b)
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if u > limit/10 {
			return 0, nil, errIntRange
		}
		if u = u*10 + uint64(b[i]-'0'); u > limit {
			return 0, nil, errIntRange
		}
	}
	if i == 0 {
		return 0, nil, errLineSyntax
	}
	if neg {
		return int(-u), b[i:], nil
	}
	return int(u), b[i:], nil
}

// parseLine reads one ingest line, with or without its newline. It
// returns errNoArrival for a blank line or a # comment. Whatever follows
// the second integer is ignored, as fmt's scan ignored it.
func parseLine(line []byte) (flow, size int, err error) {
	line = skipSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return 0, 0, errNoArrival
	}
	flow, line, err = scanInt(line)
	if err != nil {
		return 0, 0, err
	}
	// The blank in "%d %d" stands for at least one.
	if sep := skipSpace(line); len(sep) == len(line) {
		return 0, 0, errLineSyntax
	}
	size, _, err = scanInt(line)
	if err != nil {
		return 0, 0, err
	}
	return flow, size, nil
}

const (
	// maxLineBytes is the ingest reader's buffer: the longest line
	// accepted, newline included, and the most one run can hold.
	maxLineBytes = 64 << 10
	// replyBufBytes holds a run's replies between flushes; a longer run
	// flushes early, which only sends replies sooner.
	replyBufBytes = 4 << 10
)

// ingestConn is one ingest connection's state: the buffered reader the
// lines are parsed out of in place, the writer that coalesces replies,
// and the scratch of the run being gathered.
type ingestConn struct {
	s   *server
	br  *bufio.Reader
	bw  *bufio.Writer
	run ingestRun
}

// serveIngest accepts "flow size_bytes" lines from one connection and
// answers each with OK, DROP or ERR <reason>, in line order. It works by
// the run: the complete lines one read delivered are parsed, ranked
// under one progLock hold, submitted as one engine batch and answered
// with one write. Replies are flushed whenever no complete line remains
// buffered — before any read that can block — so a client that waits for
// an answer before sending more always gets it. A failed write ends the
// connection: there is nobody left to answer.
func (s *server) serveIngest(conn net.Conn) {
	defer conn.Close()
	newIngestConn(s, conn).serve()
}

func newIngestConn(s *server, conn net.Conn) *ingestConn {
	return &ingestConn{
		s:   s,
		br:  bufio.NewReaderSize(conn, maxLineBytes),
		bw:  bufio.NewWriterSize(conn, replyBufBytes),
		run: newRun(maxRun),
	}
}

func (c *ingestConn) serve() {
	for {
		if !c.lineBuffered() && !c.endRun() {
			return
		}
		line, err := c.br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// The reply goes out before the discard, which reads (and may
			// wait for) the rest of the line.
			c.reject(errLineLength)
			if !c.endRun() {
				return
			}
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = c.br.ReadSlice('\n')
			}
			continue
		}
		if len(line) == 0 { // EOF or a dead connection; a final line without its newline still counts
			c.endRun()
			return
		}
		flow, size, err := parseLine(line)
		switch {
		case err == errNoArrival:
		case err != nil:
			c.reject(err)
		default:
			c.run.add(flow, size)
			if c.run.full() {
				c.submit()
			}
		}
	}
}

// lineBuffered reports whether the next ReadSlice can return a complete
// line without reading from the connection.
func (c *ingestConn) lineBuffered() bool {
	buffered, _ := c.br.Peek(c.br.Buffered()) // cannot fail: it asks for no more than is there
	return bytes.IndexByte(buffered, '\n') >= 0
}

// submit hands the gathered run to submitRun and writes its replies. An
// arrival submitRun refuses splits the run: the ones before it are
// answered, it gets its ERR, and the rest are submitted again.
func (c *ingestConn) submit() {
	if len(c.run.flows) == 0 {
		return
	}
	oks := uint64(0)
	for rest := c.run; len(rest.flows) > 0; {
		done, err := c.s.submitRun(rest)
		for _, ok := range rest.admitted[:done] {
			if ok {
				c.bw.WriteString("OK\n")
				oks++
			} else {
				c.bw.WriteString("DROP\n")
			}
		}
		if err == nil {
			break
		}
		c.replyErr(err)
		rest = rest.from(done + 1)
	}
	c.run.reset()
	if oks > 0 {
		c.s.ingests.Add(oks)
		c.s.runs.Add(1)
	}
}

// reject answers a line that never became an arrival. The arrivals
// gathered before it are submitted first, so replies stay in line order.
func (c *ingestConn) reject(err error) {
	c.submit()
	c.replyErr(err)
}

func (c *ingestConn) replyErr(err error) {
	c.s.badLine.Add(1)
	c.bw.WriteString("ERR ")
	c.bw.WriteString(err.Error())
	c.bw.WriteByte('\n')
}

// endRun submits what was gathered and flushes the replies; it reports
// whether the peer is still there to read them. Write errors are sticky
// in bufio.Writer, so the Flush result covers every reply since the last.
func (c *ingestConn) endRun() bool {
	c.submit()
	return c.bw.Flush() == nil
}

// listenIngest opens the -ingest socket ("tcp:addr" or "unix:/path").
func (s *server) listenIngest(spec string) (net.Listener, error) {
	network, addr, ok := strings.Cut(spec, ":")
	if !ok || (network != "tcp" && network != "unix") {
		return nil, fmt.Errorf("wfqd: ingest %q must be tcp:host:port or unix:/path", spec)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s.ingestWG.Add(1)
	go func() {
		defer s.ingestWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.trackConn(conn)
			s.ingestWG.Add(1)
			go s.handleIngestConn(conn)
		}
	}()
	return ln, nil
}

// handleIngestConn runs one ingest connection to completion and joins
// it back into the ingest WaitGroup, so shutdown leaves no connection
// goroutine behind.
func (s *server) handleIngestConn(conn net.Conn) {
	defer s.ingestWG.Done()
	defer s.untrackConn(conn)
	s.serveIngest(conn)
}

// mux builds the HTTP observability surface.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /readyz", s.handleReadyz)
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /stats.json", s.handleStatsJSON)
	return m
}

// handleHealthz is the liveness probe: 200 while the datapath process
// is up (including degraded or draining states — a degraded daemon must
// not be restarted, it is busy recovering), 503 only once serving has
// actually stopped.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.healthy.Load() {
		http.Error(w, "stopping", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining, while the
// engine is anything but fully healthy (quarantined lane, rebuilding,
// stalled datapath), or before the first successfully admitted packet
// proves the submit path end to end. Load balancers steer new work away
// on 503; liveness (/healthz) stays green the whole time.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reason := ""
	switch {
	case !s.healthy.Load():
		reason = "draining"
	case !s.eng.Ready():
		reason = "engine " + s.eng.StatsSnapshot().Health
	case !s.ingested.Load():
		reason = "no successful ingest yet"
	}
	if reason != "" {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

type statsPayload struct {
	Schema    string       `json:"schema"`
	Ready     bool         `json:"ready"`
	Health    string       `json:"health"`
	UptimeS   float64      `json:"uptime_s"`
	Served    uint64       `json:"served"`
	Ingested  uint64       `json:"ingested_lines"`
	Runs      uint64       `json:"ingest_runs"`
	BadLines  uint64       `json:"bad_lines"`
	Flows     int          `json:"flows"`
	WeightSum float64      `json:"weight_sum"`
	Engine    engine.Stats `json:"engine"`
}

func (s *server) statsPayload() statsPayload {
	weights := s.ctrl.Weights()
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	// The weight vector carries one extra best-effort entry beyond the
	// admitted flows (admission.Controller.Weights).
	est := s.eng.StatsSnapshot()
	return statsPayload{
		Schema:    "wfqsort/wfqd-stats/v1",
		Ready:     s.healthy.Load() && est.Ready && s.ingested.Load(),
		Health:    est.Health,
		UptimeS:   time.Since(s.start).Seconds(),
		Served:    s.served.Load(),
		Ingested:  s.ingests.Load(),
		Runs:      s.runs.Load(),
		BadLines:  s.badLine.Load(),
		Flows:     s.cfg.flows,
		WeightSum: sum,
		Engine:    est,
	}
}

func (s *server) handleStatsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.statsPayload()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics writes a Prometheus-style text exposition of the engine
// counters, lane-balance gauges, and per-lane memory-fabric pressure.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.StatsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	emit := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("wfqd_up", "1 while the engine datapath is running.", "gauge", boolGauge(s.healthy.Load()))
	emit("wfqd_ready", "1 while fully healthy and ready for new work (the /readyz view).", "gauge",
		boolGauge(s.healthy.Load() && st.Ready && s.ingested.Load()))
	emit("wfqd_uptime_seconds", "Wall-clock seconds since boot.", "gauge", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "# HELP wfqd_discipline Rank program driving the tagger (info metric).\n# TYPE wfqd_discipline gauge\nwfqd_discipline{name=%q} 1\n", st.Label)
	emit("wfqd_submitted_total", "Packets admitted into the submission rings.", "counter", float64(st.Submitted))
	emit("wfqd_ingest_runs_total", "Socket runs handed to the engine as one batch (ingested_lines / ingest_runs in /stats.json is the mean batch).", "counter", float64(s.runs.Load()))
	emit("wfqd_inserted_total", "Packets inserted into the sorter.", "counter", float64(st.Inserted))
	emit("wfqd_extracted_total", "Packets served in tag order.", "counter", float64(st.Extracted))
	emit("wfqd_drops_ring_total", "Tail drops at full submission rings.", "counter", float64(st.DropsRing))
	emit("wfqd_drops_red_total", "Random-early-detection drops.", "counter", float64(st.DropsRED))
	emit("wfqd_fault_lost_total", "Packets lost to contained faults (accounted).", "counter", float64(st.FaultLost))
	emit("wfqd_recoveries_total", "Audit/Rebuild fault recoveries.", "counter", float64(st.Recoveries))
	emit("wfqd_remapped_total", "Packets routed off quarantined lanes.", "counter", float64(st.Remapped))
	emit("wfqd_evacuated_total", "Packets evacuated from lanes at quarantine time.", "counter", float64(st.Evacuated))
	emit("wfqd_drain_shed_total", "Packets shed by watchdog-aborted drains.", "counter", float64(st.DrainShed))
	emit("wfqd_watchdog_trips_total", "Stall and drain watchdog trips.", "counter", float64(st.WatchdogTrips))
	emit("wfqd_datapath_panics_total", "Contained datapath panics.", "counter", float64(st.DatapathPanics))
	emit("wfqd_quarantines_total", "Lane quarantine transitions.", "counter", float64(st.Supervision.Quarantines))
	emit("wfqd_requarantines_total", "Failed reinstate probes.", "counter", float64(st.Supervision.Requarantines))
	emit("wfqd_reinstates_total", "Lanes returned to service after quarantine.", "counter", float64(st.Supervision.Reinstates))
	emit("wfqd_rebuild_retries_total", "Lane rebuild retry attempts beyond the first.", "counter", float64(st.Supervision.RebuildRetries))
	emit("wfqd_quarantined_lanes", "Lanes currently out of service.", "gauge", float64(st.Supervision.QuarantinedLanes))
	for _, es := range []string{"healthy", "degraded", "stalled", "draining", "failed", "stopped"} {
		fmt.Fprintf(&b, "wfqd_engine_state{state=%q} %g\n", es, boolGauge(st.Health == es))
	}
	for i, ls := range st.Supervision.LaneStates {
		fmt.Fprintf(&b, "wfqd_lane_state{lane=\"%d\",state=%q} 1\n", i, ls)
	}
	emit("wfqd_batches_total", "Amortized InsertBatch calls.", "counter", float64(st.Batches))
	emit("wfqd_batched_ops_total", "Inserts carried by batches.", "counter", float64(st.BatchedOps))
	emit("wfqd_inflight", "Packets in rings plus sorter.", "gauge", float64(st.InFlight))
	emit("wfqd_sorter_len", "Tags resident in the sorter.", "gauge", float64(st.SorterLen))
	emit("wfqd_latency_p99_seconds", "p99 enqueue-to-extract latency (sliding window).", "gauge", st.LatencyP99Ns/1e9)
	emit("wfqd_latency_mean_seconds", "Mean enqueue-to-extract latency (sliding window).", "gauge", st.LatencyMeanNs/1e9)
	emit("wfqd_lane_imbalance", "Max/mean lane insert imbalance.", "gauge", st.LaneLoad.Imbalance)
	emit("wfqd_model_speedup", "Modeled lane-parallel speedup (sum/max lane cycles).", "gauge", st.ModelSpeedup)
	emit("wfqd_model_mpps", "Modeled sorter throughput at the paper clock, Mpps.", "gauge", st.ModeledMpps)
	for i, l := range st.RingLens {
		fmt.Fprintf(&b, "wfqd_ring_len{lane=\"%d\"} %d\n", i, l)
	}
	for i, l := range st.LaneLens {
		fmt.Fprintf(&b, "wfqd_lane_len{lane=\"%d\"} %d\n", i, l)
	}
	// Per-lane fabric pressure: region utilization, stalls, conflicts.
	// Regions are emitted in a stable order for scrape diffing.
	for _, lane := range st.FabricLanes {
		rs := make([]int, len(lane.Regions))
		for i := range rs {
			rs[i] = i
		}
		sort.Slice(rs, func(a, b int) bool { return lane.Regions[rs[a]].Region < lane.Regions[rs[b]].Region })
		for _, ri := range rs {
			p := lane.Regions[ri]
			fmt.Fprintf(&b, "wfqd_fabric_accesses_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.Accesses)
			fmt.Fprintf(&b, "wfqd_fabric_stall_cycles_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.StallCycles)
			fmt.Fprintf(&b, "wfqd_fabric_conflicts_total{lane=\"%d\",region=%q} %d\n", lane.Lane, p.Region, p.Conflicts)
			fmt.Fprintf(&b, "wfqd_fabric_stall_frac{lane=\"%d\",region=%q} %g\n", lane.Lane, p.Region, p.StallFrac)
		}
	}
	io.WriteString(w, b.String())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	if err := s.run(); err != nil {
		return err
	}

	httpLn, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.mux()}
	go hs.Serve(httpLn)
	fmt.Fprintf(stdout, "wfqd: serving HTTP on %s (%d lanes, %s policy)\n",
		httpLn.Addr(), cfg.lanes, cfg.policy)

	var ingestLn net.Listener
	if cfg.ingest != "" {
		ingestLn, err = s.listenIngest(cfg.ingest)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wfqd: ingesting packets on %s\n", cfg.ingest)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	workDone := make(chan error, 1)
	go func() {
		var werr error
		if cfg.traceFile != "" {
			werr = s.runTrace(cfg.traceFile)
		}
		if werr == nil && cfg.synthetic > 0 {
			werr = s.runSynthetic(cfg.synthetic)
		}
		workDone <- werr
	}()

	finite := cfg.ingest == "" && !cfg.linger
	for {
		select {
		case <-sig:
			fmt.Fprintln(stdout, "wfqd: signal received, draining")
			goto drain
		case werr := <-workDone:
			if werr != nil {
				log.Printf("wfqd: workload: %v", werr)
			}
			if finite {
				goto drain
			}
			// Infinite mode: keep serving the socket / HTTP until a signal.
			workDone = nil
		}
	}
drain:
	if ingestLn != nil {
		ingestLn.Close()
	}
	err = s.shutdown()
	st := s.statsPayload()
	fmt.Fprintf(stdout, "wfqd: drained — submitted %d, served %d, ring drops %d, red drops %d, fault lost %d\n",
		st.Engine.Submitted, st.Served, st.Engine.DropsRing, st.Engine.DropsRED, st.Engine.FaultLost)
	hs.Close()
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
