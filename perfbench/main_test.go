package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"polyise/internal/bitset"
)

func lastReport(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out)
	}
	return rep
}

// A corrupted reference must fail every workload: the command exits
// non-zero and reports correct=false with failed ops.
func TestCorruptReferenceFailsRun(t *testing.T) {
	for _, w := range scenarios {
		t.Run(w.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, &errOut, true)
			if code == 0 {
				t.Fatalf("exit code 0 with a corrupted reference\n%s", out.String())
			}
			rep := lastReport(t, out.String())
			if rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
				t.Fatalf("correct=%v failed=%d attempted=%d, want a failed run", rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// A clean run passes its checks and prints exactly the end-to-end metrics;
// a traced run prints exactly the per-layer metrics.
func TestReportKeys(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []struct{ name, unit string }
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "service-mix", "--seed", "5", "--seconds", "1", "--trace", tc.trace, "--trace-dir", t.TempDir()}, &out, &errOut, false)
		if code != 0 {
			t.Fatalf("trace=%s: exit code %d: %s\n%s", tc.trace, code, errOut.String(), out.String())
		}
		rep := lastReport(t, out.String())
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Fatalf("trace=%s: correct=%v failed=%d attempted=%d", tc.trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(tc.want) {
			t.Fatalf("trace=%s: %d metrics, want %d", tc.trace, len(rep.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace=%s: metric %s = %+v, want unit %s", tc.trace, m.name, got, m.unit)
			}
		}
	}
}

// The two digest paths — bitset words from the library, member lists
// parsed from NDJSON — must agree, or every service check would fail.
func TestDigestPathsAgree(t *testing.T) {
	members := []int{0, 3, 63, 64, 127, 130, 199}
	var a, b cutSet
	a.addWords(bitset.FromMembers(200, members...).Words())
	got, err := parseNodes([]byte(`{"inputs":[1,2],"nodes":[0,3,63,64,127,130,199],"outputs":[5]}`+"\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.addMembers(got)
	if a != b {
		t.Fatalf("digests differ: %v vs %v (parsed %v)", a, b, got)
	}
	var c cutSet
	c.addMembers(members[:6])
	if c == a {
		t.Fatal("different sets gave the same digest")
	}
	for _, bad := range []string{`{"inputs":[]}`, `{"nodes":[1,x]}`, `{"nodes":[1,2`} {
		if _, err := parseNodes([]byte(bad), nil); err == nil {
			t.Errorf("parseNodes(%s) accepted a malformed row", bad)
		}
	}
}
