package thermosc

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// With AuditEvery=1 every cold solve is audited; a genuine plan must land
// in verify_pass, and the counters must reach /v1/stats.
func TestServeAuditHookPass(t *testing.T) {
	srv := NewServer(ServerConfig{AuditEvery: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("AO")); status != 200 {
		t.Fatalf("cold solve: status %d: %s", status, b)
	}
	srv.waitIdle()

	st := srv.Stats()
	if st.Audit.VerifyPass != 1 || st.Audit.VerifyFail != 0 {
		t.Fatalf("audit counters after a genuine solve: %+v", st.Audit)
	}

	// A cache hit is not a cold solve and must not trigger another audit.
	if status, _ := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("AO")); status != 200 {
		t.Fatal("cache hit failed")
	}
	srv.waitIdle()
	if st := srv.Stats(); st.Audit.VerifyPass != 1 {
		t.Fatalf("cache hit triggered an audit: %+v", st.Audit)
	}

	body := getBody(t, ts.URL+"/v1/stats")
	if !strings.Contains(body, `"verify_pass":1`) || !strings.Contains(body, `"verify_fail":0`) {
		t.Fatalf("/v1/stats does not export the audit counters: %s", body)
	}
}

// A corrupted plan fed through the audit path must land in verify_fail
// with the divergence detail preserved.
func TestServeAuditHookFail(t *testing.T) {
	srv := NewServer(ServerConfig{AuditEvery: 1})

	plat, err := New(2, 1, WithPaperLevels(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := plat.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	plan.PeakC += 1 // tamper: the oracle's differential must catch this

	srv.work.Add(1)
	srv.runAudit(plat, plan, 65)
	srv.waitIdle()

	st := srv.Stats()
	if st.Audit.VerifyFail != 1 {
		t.Fatalf("tampered plan not counted as a failure: %+v", st.Audit)
	}
	if !strings.Contains(st.Audit.LastFailure, "peak-mismatch") {
		t.Fatalf("last_failure lacks the invariant detail: %q", st.Audit.LastFailure)
	}

	// An audit that cannot run at all (schedule-less plan) is a failure too.
	srv.work.Add(1)
	srv.runAudit(plat, &Plan{Method: MethodAO, M: 1, Feasible: true}, 65)
	srv.waitIdle()
	if st := srv.Stats(); st.Audit.VerifyFail != 2 {
		t.Fatalf("schedule-less plan not counted: %+v", st.Audit)
	}
}
