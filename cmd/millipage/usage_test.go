package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"millipage/internal/pins"
)

// TestUsageGolden pins the full usage text. A diff here means the CLI
// surface changed; update the doc comment and the dispatch switch to
// match, and UPDATE_PINS=1 rewrites testdata/usage.golden.
func TestUsageGolden(t *testing.T) {
	const path = "testdata/usage.golden"
	if pins.Update() {
		if err := os.WriteFile(path, []byte(usageText+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := usageText+"\n", string(blob); got != want {
		t.Fatalf("usage text diverged from %s; if the change is intended, rewrite it with\n\tUPDATE_PINS=1 go test -count=1 -run '^TestUsageGolden$' ./cmd/millipage/\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestUsageListsEveryDispatchCase audits the three places a subcommand
// must be declared — the dispatch switch, the usage synopsis line, and a
// usage body entry — by parsing the dispatch switch out of main.go, so a
// new subcommand cannot land without its help text.
func TestUsageListsEveryDispatchCase(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	body := string(src)
	idx := strings.Index(body, "func dispatch(")
	if idx < 0 {
		t.Fatal("main.go has no dispatch function")
	}
	end := strings.Index(body[idx:], "\n}")
	dispatchSrc := body[idx : idx+end]
	cases := regexp.MustCompile(`case "([a-z]+)":`).FindAllStringSubmatch(dispatchSrc, -1)
	if len(cases) < 10 {
		t.Fatalf("parsed only %d dispatch cases — the extraction regexp broke", len(cases))
	}

	lines := strings.Split(usageText, "\n")
	synopsis := lines[0]
	open, close := strings.Index(synopsis, "<"), strings.Index(synopsis, ">")
	if open < 0 || close < open {
		t.Fatalf("synopsis line has no <...> subcommand list: %q", synopsis)
	}
	listed := strings.Split(synopsis[open+1:close], "|")

	for _, m := range cases {
		cmd := m[1]
		found := false
		for _, l := range listed {
			if l == cmd {
				found = true
			}
		}
		if !found {
			t.Errorf("subcommand %q dispatches but is missing from the usage synopsis", cmd)
		}
		hasEntry := false
		for _, line := range lines[1:] {
			if strings.HasPrefix(line, "  "+cmd+" ") {
				hasEntry = true
				break
			}
		}
		if !hasEntry {
			t.Errorf("subcommand %q dispatches but has no usage body entry", cmd)
		}
	}
	// And the reverse: nothing advertised that does not dispatch.
	for _, l := range listed {
		found := false
		for _, m := range cases {
			if m[1] == l {
				found = true
			}
		}
		if !found {
			t.Errorf("usage synopsis advertises %q but dispatch has no such case", l)
		}
	}
}

// TestUsageProtocolFlags keeps the cross-cutting flag honest: every
// subcommand that accepts -protocol must say so in its usage block, with
// the same value vocabulary everywhere.
func TestUsageProtocolFlags(t *testing.T) {
	blocks := usageBlocks(t)
	for _, cmd := range []string{"apps", "chaos", "explore", "serve"} {
		if !strings.Contains(blocks[cmd], "-protocol P") {
			t.Errorf("%s takes -protocol but its usage block does not list it", cmd)
		}
		if !strings.Contains(blocks[cmd], "millipage, ivy or lrc-mw") {
			t.Errorf("%s: -protocol vocabulary differs from the other subcommands", cmd)
		}
	}
}

// TestAppsRejectsBadInput: `apps` used to exit 0 on each of these — empty
// tables for an unknown -only, a "0 hosts" row for -hosts 0, every data
// set silently clamped to its minimum for a negative -scale.
func TestAppsRejectsBadInput(t *testing.T) {
	for _, bad := range []string{"0", "-2", "1,0", "4,x", ""} {
		if hs, err := parseHosts(bad); err == nil {
			t.Errorf("parseHosts(%q) = %v, want an error", bad, hs)
		}
	}
	if hs, err := parseHosts("1, 2,8"); err != nil || len(hs) != 3 || hs[2] != 8 {
		t.Errorf("parseHosts(\"1, 2,8\") = %v, %v", hs, err)
	}
	for _, tc := range []struct {
		args []string
		want string // the error names this
	}{
		{[]string{"-only", "NOPE", "-scale", "0.02"}, "NOPE"},
		{[]string{"-hosts", "0", "-only", "SOR", "-scale", "0.02"}, "host count"},
		{[]string{"-scale", "-1", "-only", "SOR", "-hosts", "1"}, "Scale"},
	} {
		if err := runApps(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("apps %v: error = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// usageBlocks splits the usage body into per-subcommand blocks keyed by
// subcommand name (entries start at column 2; continuations are deeper).
func usageBlocks(t *testing.T) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	var cur string
	for _, line := range strings.Split(usageText, "\n")[1:] {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			cur = strings.Fields(line)[0]
		}
		if cur != "" {
			blocks[cur] += line + "\n"
		}
	}
	if len(blocks) < 10 {
		t.Fatalf("parsed only %d usage blocks", len(blocks))
	}
	return blocks
}
