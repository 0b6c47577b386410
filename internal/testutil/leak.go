// Package testutil holds cross-suite test helpers. Its centerpiece is a
// hand-rolled goroutine-leak check (the module graph is pinned with no
// network, so go.uber.org/goleak is not an option): a TestMain wrapper
// that snapshots the goroutine dump after the suite and fails if any
// goroutine is still running this repo's code. Every background worker in
// the tree (acceptor loops, shard sequencers, janitors, coalescing
// senders) is owned by a Close/Stop, so a survivor here is a missing
// shutdown path, not noise.
package testutil

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyMain runs the suite and then fails the process if goroutines
// running repro code outlive it. Use from a one-line TestMain:
//
//	func TestMain(m *testing.M) { testutil.VerifyMain(m) }
func VerifyMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr,
				"goroutine leak check: %d goroutine(s) still running repro code after the suite:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls the full goroutine dump until no repro-owned
// goroutine remains or the deadline passes, returning the survivors'
// stacks. The retry loop gives legitimate shutdown paths (connection
// teardown, drain-on-close) time to run down before we call leak.
func leakedGoroutines(wait time.Duration) []string {
	return poll(wait, isReproGoroutine)
}

// Lingering polls the goroutine dump for up to wait and returns the stacks
// of the goroutines that still run a function whose name starts with
// prefix, such as "repro/internal/tcpnet.". The calling test's goroutine
// and the suite's main goroutine are not counted. Tests use it to assert
// that one shutdown path stops every worker it owns, without waiting for
// the suite-wide check.
func Lingering(prefix string, wait time.Duration) []string {
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	header := string(self[:bytes.IndexByte(self, '[')]) // "goroutine N "
	return poll(wait, func(stanza string) bool {
		if strings.HasPrefix(stanza, header) || strings.Contains(stanza, "testing.(*M).Run(") {
			return false
		}
		for _, line := range strings.Split(stanza, "\n") {
			if strings.HasPrefix(line, prefix) || strings.HasPrefix(line, "created by "+prefix) {
				return true
			}
		}
		return false
	})
}

// poll retries matching until no goroutine matches or wait has passed.
func poll(wait time.Duration, match func(string) bool) []string {
	deadline := time.Now().Add(wait)
	delay := 1 * time.Millisecond
	for {
		leaked := matchingGoroutines(match)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// matchingGoroutines returns the stack of every goroutine (other than the
// caller's) that match accepts.
func matchingGoroutines(match func(string) bool) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.HasPrefix(g, "goroutine ") || !match(g) {
			continue
		}
		// Skip the goroutine running this check itself.
		if strings.Contains(g, "repro/internal/testutil.matchingGoroutines") {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// isReproGoroutine reports whether any function frame in the stanza is
// from this module. Function lines are unindented ("repro/internal/…");
// the tab-indented lines are file positions and are ignored so a GOPATH
// containing "repro" cannot confuse the match.
func isReproGoroutine(stanza string) bool {
	for _, line := range strings.Split(stanza, "\n") {
		if strings.HasPrefix(line, "repro/") ||
			strings.HasPrefix(line, "created by repro/") {
			return true
		}
	}
	return false
}
