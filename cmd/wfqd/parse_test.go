package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sscanfLine is the grammar's reference: what the per-line loop did with
// one line before the hand parser replaced it.
func sscanfLine(line string) (flow, size int, arrival, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return 0, 0, false, true
	}
	if _, err := fmt.Sscanf(line, "%d %d", &flow, &size); err != nil {
		return 0, 0, true, false
	}
	return flow, size, true, true
}

// checkAgainstSscanf compares parseLine with the reference on one line,
// given with and without its newline (ReadSlice delivers both forms).
func checkAgainstSscanf(t *testing.T, line string) {
	t.Helper()
	wantFlow, wantSize, arrival, ok := sscanfLine(line)
	for _, in := range []string{line, line + "\n", line + "\r\n"} {
		flow, size, err := parseLine([]byte(in))
		switch {
		case !arrival:
			if err != errNoArrival {
				t.Errorf("%q: want no arrival, got (%d, %d, %v)", in, flow, size, err)
			}
		case !ok:
			if err == nil || err == errNoArrival {
				t.Errorf("%q: Sscanf rejects it, parseLine gave (%d, %d, %v)", in, flow, size, err)
			}
		case err != nil || flow != wantFlow || size != wantSize:
			t.Errorf("%q: Sscanf gives (%d, %d), parseLine (%d, %d, %v)", in, wantFlow, wantSize, flow, size, err)
		}
	}
}

var grammarLines = []string{
	"1 1500", "0 64", "  3 40", "3 40   ", "\t2\t900\t", "1  \t 7", "1\v2", "1\f2", "1\r2",
	"+1 +5", "-1 5", "1 -5", "1-5", "1+5", "+1+5", "-0 -0", "1 +", "1 -", "+ 1 2", "- 1 2", "1 + 2", "--1 2", "+-1 2",
	"1 2 3", "1 2 trailing tokens", "1 2# not a comment here", "1 2x", "1 5.5", "1.5 2", "1e3 2", "0x10 2", "1_0 2", "1,2", "1;2",
	"12", "7", "a b", "notanumber", "1 b", "a 1", "", " ", "\t", "#", "# a comment", "  # indented comment", "#1 2", "1 #2",
	"007 0100", "00000000000000000000000000000000000001 2",
	"9223372036854775807 1", "9223372036854775808 1", "-9223372036854775808 1", "-9223372036854775809 1",
	"1 9223372036854775807", "1 9223372036854775808", "1 -9223372036854775808", "1 -9223372036854775809",
	"18446744073709551616 1", "99999999999999999999999999999999 1", "1 99999999999999999999999999999999",
	"1\u00a02", "\u00a01 2", "1\u20032", "\u30001 2\u3000", "1\u00852", "1\u200b2", "\u200b1 2", "1\u16802", "1\u2028 2", "1\u202f\u205f2", "1\ufeff2",
	"1\xff2", "\xff1 2", "\xc2 1 2", "1 2\xff", "1\xc2\xa02", "1\xe2\x80 2",
	"\u0661 \u0662", "\uff11 \uff12", "1 \uff12",
	"1\x002", "\x001 2", "1 2\x00",
}

// TestParseLineGrammar pins the line grammar: the hand parser accepts
// and rejects exactly what TrimSpace + Sscanf("%d %d") did, with the
// same two values, and an integer that does not fit is an error, never
// a wrapped value.
func TestParseLineGrammar(t *testing.T) {
	for _, line := range grammarLines {
		checkAgainstSscanf(t, line)
	}
	// The reference itself, on the cases the issue names, so a change in
	// fmt would show here and not as a silent change of grammar.
	for _, tc := range []struct {
		line       string
		flow, size int
		arrival    bool
		ok         bool
	}{
		{"  1 1500  ", 1, 1500, true, true},
		{"+1 +5", 1, 5, true, true},
		{"1 -5", 1, -5, true, true},
		{"1-5", 0, 0, true, false},
		{"1\t2", 1, 2, true, true},
		{"1 2 3", 1, 2, true, true},
		{"# c", 0, 0, false, true},
		{"", 0, 0, false, true},
		{"12", 0, 0, true, false},
		{"9223372036854775808 1", 0, 0, true, false},
		{"1 -9223372036854775809", 0, 0, true, false},
		{"-9223372036854775808 9223372036854775807", -9223372036854775808, 9223372036854775807, true, true},
	} {
		flow, size, err := parseLine([]byte(tc.line))
		arrival, ok := err != errNoArrival, err == nil || err == errNoArrival
		if arrival != tc.arrival || ok != tc.ok || (ok && arrival && (flow != tc.flow || size != tc.size)) {
			t.Errorf("%q: got (%d, %d, %v)", tc.line, flow, size, err)
		}
	}
	if _, _, err := parseLine([]byte("9223372036854775808 1")); err != errIntRange {
		t.Errorf("out-of-range integer: %v, want %v", err, errIntRange)
	}
}

// FuzzParseLine is the differential against Sscanf on arbitrary lines.
// Its seed corpus (grammarLines plus testdata/fuzz) runs under go test.
func FuzzParseLine(f *testing.F) {
	for _, line := range grammarLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		// A line never holds a newline: the reader splits on it.
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		checkAgainstSscanf(t, string(line))
	})
}
