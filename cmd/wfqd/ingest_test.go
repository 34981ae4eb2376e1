package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"wfqsort/internal/raceflag"
)

// transports are the two ways the line-protocol tests reach serveIngest:
// an in-memory pipe, where every write waits for its reader, and a real
// loopback TCP pair through listenIngest's accept loop. served is closed
// when the server side of a pipe has returned; TCP needs none, the
// client reads EOF.
var transports = []struct {
	name string
	dial func(t *testing.T, s *server) (client net.Conn, served <-chan struct{})
}{
	{"pipe", func(t *testing.T, s *server) (net.Conn, <-chan struct{}) {
		client, srv := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.serveIngest(srv)
		}()
		return client, served
	}},
	{"tcp", func(t *testing.T, s *server) (net.Conn, <-chan struct{}) {
		ln, err := s.listenIngest("tcp:127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return client, nil
	}},
}

// mixedScript is n lines of every kind the grammar knows, in a fixed
// order, and the number of them that are answered.
func mixedScript(n int) (lines []string, replies int) {
	kinds := []string{
		"%d 1500", "  %d\t64  ", "# comment %d", "", "%d", "x%d 9", "99 %d", "%d -5", "%d 40 trailing",
		"+%d +200", "%d 99999999999999999999", "   ", "%d-7", "%d 0",
	}
	x := uint32(1)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		k := kinds[int(x>>16)%len(kinds)]
		line := k
		if strings.Contains(k, "%d") {
			line = fmt.Sprintf(k, i%4)
		}
		lines = append(lines, line)
		if _, _, arrival, _ := sscanfLine(line); arrival {
			replies++
		}
	}
	return lines, replies
}

// TestIngestLineProtocol covers the replies to each kind of line and
// what working by the run must not change, on both transports: replies
// in line order whatever the framing, a reply before any read that can
// block, an over-long line answered and skipped, and a final line
// without its newline.
func TestIngestLineProtocol(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			s := bootServer(t)
			first, _ := tr.dial(t, s)
			defer first.Close()
			send := func(line string) string {
				t.Helper()
				return pump(t, first, [][]byte{[]byte(line + "\n")}, 1)[0]
			}
			if got := send("1 1500"); got != "OK\n" {
				t.Fatalf("valid line: %q", got)
			}
			if got := send("notanumber"); !strings.HasPrefix(got, "ERR ") {
				t.Fatalf("garbage line: %q", got)
			}
			if got := send("99 1500"); !strings.HasPrefix(got, "ERR ") {
				t.Fatalf("bad flow: %q", got)
			}
			if got := send("1 -5"); !strings.HasPrefix(got, "ERR ") {
				t.Fatalf("bad size: %q", got)
			}
			if s.ingests.Load() != 1 || s.badLine.Load() != 3 {
				t.Fatalf("ingest counters: ok=%d bad=%d", s.ingests.Load(), s.badLine.Load())
			}
			first.Close()

			// (a) one write of 1,000 mixed lines is answered byte for byte
			// like the same lines sent one at a time.
			lines, want := mixedScript(1000)
			ok0, bad0, runs0 := s.ingests.Load(), s.badLine.Load(), s.runs.Load()
			var oneByOne []string
			slow, _ := tr.dial(t, s)
			defer slow.Close()
			for _, line := range lines {
				n := 0
				if _, _, arrival, _ := sscanfLine(line); arrival {
					n = 1
				}
				oneByOne = append(oneByOne, pump(t, slow, [][]byte{[]byte(line + "\n")}, n)...)
			}
			ok1, bad1, runs1 := s.ingests.Load(), s.badLine.Load(), s.runs.Load()
			fast, served := tr.dial(t, s)
			defer fast.Close()
			atOnce := strings.Join(pump(t, fast, [][]byte{[]byte(strings.Join(lines, "\n") + "\n")}, want), "")
			if a := strings.Join(oneByOne, ""); a != atOnce {
				t.Fatalf("replies differ with framing:\nline at a time %q\nin one write    %q", a, atOnce)
			}
			ok2, bad2, runs2 := s.ingests.Load(), s.badLine.Load(), s.runs.Load()
			if ok1 == ok0 || bad1 == bad0 || ok2-ok1 != ok1-ok0 || bad2-bad1 != bad1-bad0 {
				t.Fatalf("counters differ with framing: OK %d then %d, bad %d then %d", ok1-ok0, ok2-ok1, bad1-bad0, bad2-bad1)
			}
			if n := strings.Count(atOnce, "OK\n"); uint64(n) != ok2-ok1 {
				t.Fatalf("%d OK replies, ingested_lines moved by %d", n, ok2-ok1)
			}
			// Line at a time is a run per line; the bulk write is not.
			if runs1-runs0 != ok1-ok0 || runs2-runs1 >= ok2-ok1 {
				t.Fatalf("ingest_runs moved by %d then %d for %d OK lines each", runs1-runs0, runs2-runs1, ok1-ok0)
			}

			// (b) the answer to a complete line arrives while the next line
			// is still incomplete.
			if got := pump(t, fast, [][]byte{[]byte("1 100\n2 2")}, 1); got[0] != "OK\n" {
				t.Fatalf("first line of a split write: %q", got[0])
			}
			if got := pump(t, fast, [][]byte{[]byte("00\n")}, 1); got[0] != "OK\n" {
				t.Fatalf("completed line: %q", got[0])
			}

			// A line longer than the reader's buffer is answered once,
			// counted once, skipped through its newline, and the connection
			// carries on.
			bad := s.badLine.Load()
			long := append(bytes.Repeat([]byte("7"), 3*maxLineBytes), " 1\n1 100\n"...)
			got := pump(t, fast, [][]byte{long[:maxLineBytes+10], long[maxLineBytes+10:]}, 2)
			if got[0] != "ERR line too long\n" || got[1] != "OK\n" {
				t.Fatalf("over-long line: %q", got)
			}
			if s.badLine.Load() != bad+1 {
				t.Fatalf("over-long line counted %d bad lines", s.badLine.Load()-bad)
			}

			// A final line without a newline is a line.
			before := s.ingests.Load()
			if _, err := fast.Write([]byte("3 300")); err != nil {
				t.Fatal(err)
			}
			if tcp, ok := fast.(*net.TCPConn); ok {
				if err := tcp.CloseWrite(); err != nil {
					t.Fatal(err)
				}
				if rest, err := io.ReadAll(fast); err != nil || string(rest) != "OK\n" {
					t.Fatalf("unterminated last line: %q, %v", rest, err)
				}
			}
			fast.Close()
			if served != nil {
				<-served // the pipe has no half-close: its reply is lost, its count is not
			}
			if s.ingests.Load() != before+1 {
				t.Fatalf("unterminated last line ingested %d", s.ingests.Load()-before)
			}
		})
	}
}

// scriptConn is a connection that delivers chunk on each of reads Reads
// and then EOF. Writes are counted, or fail with writeErr.
type scriptConn struct {
	net.Conn // unused methods
	chunk    []byte
	reads    int
	wrote    int
	writeErr error
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.reads == 0 {
		return 0, io.EOF
	}
	c.reads--
	runtime.Gosched() // a real read waits; let the engine run
	return copy(p, c.chunk), nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	c.wrote += len(p)
	return len(p), nil
}

func (c *scriptConn) Close() error { return nil }

// waitIngest fails the test if the ingest goroutines do not finish.
func waitIngest(t *testing.T, s *server) {
	t.Helper()
	done := make(chan struct{})
	go func() { s.ingestWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest goroutines still running")
	}
}

// TestIngestPeerGone: a connection whose peer stopped reading ends at
// the first failed flush, not when the lines run out, and what it had
// submitted is still served.
func TestIngestPeerGone(t *testing.T) {
	t.Run("write error", func(t *testing.T) {
		s := bootServer(t)
		// Lines without end: only the write error can end this connection.
		conn := &scriptConn{chunk: bytes.Repeat([]byte("1 100\n"), 64), reads: -1, writeErr: errors.New("peer gone")}
		s.trackConn(conn)
		s.ingestWG.Add(1)
		go s.handleIngestConn(conn)
		waitIngest(t, s)
		checkDrained(t, s)
	})
	t.Run("tcp client closed mid-run", func(t *testing.T) {
		s := bootServer(t)
		ln, err := s.listenIngest("tcp:127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Never read a reply; close with replies unread and lines unsent.
		if _, err := client.Write(bytes.Repeat([]byte("2 200\n"), 20000)); err != nil {
			t.Fatal(err)
		}
		client.Close()
		ln.Close()
		waitIngest(t, s)
		checkDrained(t, s)
	})
}

// checkDrained shuts s down and checks conservation: every line the
// engine admitted was served.
func checkDrained(t *testing.T, s *server) {
	t.Helper()
	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	st := s.statsPayload()
	if st.Engine.Submitted == 0 || st.Engine.Submitted != st.Served || st.Ingested != st.Served {
		t.Fatalf("submitted %d, answered OK %d, served %d", st.Engine.Submitted, st.Ingested, st.Served)
	}
	if err := st.Engine.ConservationCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestZeroAlloc: a steady stream of valid lines costs the
// connection goroutine no allocation per line — not for the line, its
// parse, its rank, its submission or its reply.
func TestIngestZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := testConfig()
	cfg.ringSize = 4096 // room for a run per shard: a blocked push arms a timer, which allocates
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()

	const linesPerRead, reads = 256, 32
	conn := &scriptConn{chunk: bytes.Repeat([]byte("1 1500\n"), linesPerRead)}
	c := newIngestConn(s, conn)
	stream := func() {
		conn.reads = reads
		c.serve() // returns at the script's EOF; the reader and writer carry on
	}
	perStream := testing.AllocsPerRun(20, stream)
	if want := 21 * reads * linesPerRead * len("OK\n"); conn.wrote != want {
		t.Fatalf("wrote %d reply bytes, want %d", conn.wrote, want)
	}
	// AllocsPerRun counts the whole process, and the engine's goroutines
	// are in it: the merge stage arms a timer each time it runs dry, at
	// most once per run here, and a push that finds its ring full arms
	// one too. A single allocation per line on this goroutine reads 1.
	if perLine := perStream / (reads * linesPerRead); perLine >= 0.1 {
		t.Fatalf("%.0f allocations per %d lines (%.2f per line), want 0 per line", perStream, reads*linesPerRead, perLine)
	}
}
