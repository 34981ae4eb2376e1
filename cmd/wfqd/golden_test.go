package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
)

// rankRecorder wraps the server's rank program and logs, in the order
// the program was asked, the (tag, flow) each arrival is submitted
// under. Rank runs under the server's progLock, so the log needs no lock
// of its own.
type rankRecorder struct {
	rank.Program
	quantize func(rank float64) int
	log      [][2]int
}

func (r *rankRecorder) Rank(p packet.Packet, now float64) (rank.Ranked, error) {
	rk, err := r.Program.Rank(p, now)
	if err == nil {
		r.log = append(r.log, [2]int{r.quantize(rk.Rank), p.Flow})
	}
	return rk, err
}

// pump writes chunks to conn from a second goroutine while reading
// replies on the caller's, until want reply lines have arrived.
func pump(t *testing.T, conn net.Conn, chunks [][]byte, want int) []string {
	t.Helper()
	if err := conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() {
		for _, c := range chunks {
			if _, err := conn.Write(c); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	replies := make([]string, 0, want)
	rd := bufio.NewReader(conn)
	for len(replies) < want {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d of %d: %v", len(replies), want, err)
		}
		replies = append(replies, line)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	return replies
}

// goldenInput is a fixed script of valid lines cut into writes of
// unequal size, several of them ending mid-line, so the server sees runs
// of many lengths.
func goldenInput(flows int) (chunks [][]byte, lines int) {
	var all []byte
	x := uint32(12345)
	next := func(n int) int {
		x = x*1664525 + 1013904223
		return int(x>>8) % n
	}
	for lines = 0; lines < 3000; lines++ {
		all = append(all, fmt.Sprintf("%d %d\n", next(flows), 40+next(1461))...)
	}
	for len(all) > 0 {
		n := min(1+next(700), len(all))
		chunks = append(chunks, all[:n])
		all = all[n:]
	}
	return chunks, lines
}

// TestSubmittedSequenceGolden pins what the ingest path submits for the
// disciplines whose ranks do not read the clock: one connection fed a
// fixed script must rank and submit the same (tag, flow) sequence the
// per-line loop did. The digests were recorded at the commit before the
// run pipeline (add1fd4) by running this test there.
func TestSubmittedSequenceGolden(t *testing.T) {
	golden := map[string]string{
		"scfq": "f2a6378c0caaf6573aae87d66fa08df871d6060d47e570bc67bf5765dad60600",
		"stfq": "a57323e9e83537b1a535d65d2d691fb389696059f09fc2e047592542dcb94878",
		"srpt": "003505836601c456f8d2f902059e4b5e473189091ad4fdbdd97307e2885af8ac",
	}
	for _, d := range []string{"scfq", "stfq", "srpt"} {
		t.Run(d, func(t *testing.T) {
			cfg := testConfig()
			cfg.discipline = d
			s, err := newServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &rankRecorder{Program: s.prog, quantize: func(r float64) int {
				return int(r/s.gran+0.5) % s.eng.TagRange()
			}}
			s.prog = rec
			// The test is the consumer, so it sees what was served.
			if err := s.eng.Start(); err != nil {
				t.Fatal(err)
			}
			var served [][2]int
			consumed := make(chan struct{})
			go func() {
				defer close(consumed)
				for sv := range s.eng.Served() {
					served = append(served, [2]int{sv.Tag, sv.Payload})
				}
			}()

			chunks, lines := goldenInput(cfg.flows)
			client, srv := net.Pipe()
			go s.serveIngest(srv)
			for i, reply := range pump(t, client, chunks, lines) {
				if reply != "OK\n" {
					t.Fatalf("line %d answered %q", i, reply)
				}
			}
			client.Close()
			if err := s.shutdown(); err != nil {
				t.Fatal(err)
			}
			<-consumed

			if len(rec.log) != lines || len(served) != lines {
				t.Fatalf("ranked %d, served %d of %d lines", len(rec.log), len(served), lines)
			}
			h := sha256.New()
			for _, tf := range rec.log {
				fmt.Fprintf(h, "%d %d\n", tf[0], tf[1])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != golden[d] {
				t.Errorf("submitted (tag, flow) sequence digest %s, golden %s", got, golden[d])
			}
			// What the engine served is, as a multiset, what the recorder
			// says was submitted: the quantization above is the server's.
			byTagFlow := func(s [][2]int) {
				sort.Slice(s, func(a, b int) bool {
					if s[a][0] != s[b][0] {
						return s[a][0] < s[b][0]
					}
					return s[a][1] < s[b][1]
				})
			}
			want := append([][2]int(nil), rec.log...)
			byTagFlow(want)
			byTagFlow(served)
			for i := range want {
				if want[i] != served[i] {
					t.Fatalf("served multiset differs from submitted at %d: %v vs %v", i, served[i], want[i])
				}
			}
		})
	}
}
