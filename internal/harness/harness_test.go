package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTestbedRequiresTempDir(t *testing.T) {
	if _, err := NewTestbed(Options{}); err == nil {
		t.Fatal("missing TempDir accepted")
	}
}

func TestTestbedStartsAndDelivers(t *testing.T) {
	tb, err := NewTestbed(Options{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()
	a := benchAlert(tb)
	rep, err := deliverDriven(tb, a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredVia != "Buddy IM" {
		t.Fatalf("DeliveredVia = %q", rep.DeliveredVia)
	}
	if !tb.Sim.RunUntil(func() bool { return tb.User.ReceiptCount() == 1 }, 500*time.Millisecond, time.Minute) {
		t.Fatal("alert never reached the user")
	}
}

func TestE1Numbers(t *testing.T) {
	res, err := E1IMDelivery(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	assertRowDurationUnder(t, res, "one-way IM delivery (mean)", time.Second)
	assertRowDurationBetween(t, res, "ack with pessimistic logging (mean)", 500*time.Millisecond, 3*time.Second)
}

func TestE2Numbers(t *testing.T) {
	res, err := E2ProxyRouting(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	assertRowDurationBetween(t, res, "detection → user delivery (mean)", 500*time.Millisecond, 6*time.Second)
}

func TestE3Numbers(t *testing.T) {
	res, err := E3Aladdin(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	assertRowDurationBetween(t, res, "remote press → user IM (mean)", 7*time.Second, 16*time.Second)
}

func TestE4Numbers(t *testing.T) {
	res, err := E4WISH(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	assertRowDurationBetween(t, res, "laptop send → subscriber IM (mean)", 2*time.Second, 9*time.Second)
}

func TestE7Throughput(t *testing.T) {
	res, err := E7PortalScale(200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || !strings.Contains(res.Rows[0].Measured, "alerts/s") {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// The hub delivered every alert, and the note says what the figure
	// now includes: the pessimistic log.
	if len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "2000 of 2000 alerts delivered") ||
		!strings.Contains(res.Notes[0], "fsyncs/alert") {
		t.Fatalf("notes = %q", res.Notes)
	}
}

func TestE5ShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("month simulation in -short mode")
	}
	res, err := E5FaultMonth(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowMap(res)
	if !strings.HasPrefix(rows["extended IM downtimes"], "5 ") {
		t.Fatalf("downtimes row = %q", rows["extended IM downtimes"])
	}
	if rows["failures not auto-recovered"] != "3" {
		t.Fatalf("unrecovered row = %q", rows["failures not auto-recovered"])
	}
	if rows["MyAlertBuddy restarts by MDC"] == "0" {
		t.Fatal("no MDC restarts recorded")
	}
	t.Log("\n" + res.Table())
}

func TestAblationNoPlogShowsLossWithoutReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation in -short mode")
	}
	res, err := AblationNoPlog(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowMap(res)
	if !strings.HasPrefix(rows["with log-before-ack + replay"], "4/4") {
		t.Fatalf("with-plog row = %q", rows["with log-before-ack + replay"])
	}
	without := rows["without replay (ablated)"]
	if strings.HasPrefix(without, "4/4") {
		t.Fatalf("ablated run lost nothing: %q", without)
	}
}

func TestResultTable(t *testing.T) {
	r := &Result{ID: "X", Title: "test"}
	r.AddRow("metric-a", "1 s", "2 s", "note")
	r.AddNote("hello %d", 42)
	table := r.Table()
	for _, want := range []string{"X — test", "metric-a", "note", "hello 42"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func rowMap(r *Result) map[string]string {
	out := make(map[string]string, len(r.Rows))
	for _, row := range r.Rows {
		out[row.Metric] = row.Measured
	}
	return out
}

func assertRowDurationUnder(t *testing.T, r *Result, metric string, limit time.Duration) {
	t.Helper()
	d := rowDuration(t, r, metric)
	if d <= 0 || d > limit {
		t.Fatalf("%s = %v, want (0, %v]\n%s", metric, d, limit, r.Table())
	}
}

func assertRowDurationBetween(t *testing.T, r *Result, metric string, lo, hi time.Duration) {
	t.Helper()
	d := rowDuration(t, r, metric)
	if d < lo || d > hi {
		t.Fatalf("%s = %v, want [%v, %v]\n%s", metric, d, lo, hi, r.Table())
	}
}

func rowDuration(t *testing.T, r *Result, metric string) time.Duration {
	t.Helper()
	for _, row := range r.Rows {
		if row.Metric == metric {
			d, err := time.ParseDuration(row.Measured)
			if err != nil {
				t.Fatalf("row %q measured %q is not a duration: %v", metric, row.Measured, err)
			}
			return d
		}
	}
	t.Fatalf("no row %q in %s", metric, r.Table())
	return 0
}

func TestE6BaselineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow baseline comparison in -short mode")
	}
	res, err := E6Baseline(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowMap(res)
	simbaDesk := rows["SIMBA, user at desk"]
	naiveDesk := rows["naive, user at desk"]
	if simbaDesk == "" || naiveDesk == "" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// Shape: SIMBA lands ~1 message per alert at the desk; naive ~4.
	simbaMsgs := msgsPerAlert(t, simbaDesk)
	naiveMsgs := msgsPerAlert(t, naiveDesk)
	if simbaMsgs > 2.0 {
		t.Fatalf("SIMBA msgs/alert = %.1f (row %q)", simbaMsgs, simbaDesk)
	}
	if naiveMsgs < 2.5 {
		t.Fatalf("naive msgs/alert = %.1f (row %q)", naiveMsgs, naiveDesk)
	}
	if naiveMsgs <= simbaMsgs {
		t.Fatalf("naive (%f) not more irritating than SIMBA (%f)", naiveMsgs, simbaMsgs)
	}
	t.Log("\n" + res.Table())
}

func TestAblationNoMonkeyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation in -short mode")
	}
	res, err := AblationNoMonkey(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Table())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestAblationProbePeriodShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation in -short mode")
	}
	res, err := AblationProbePeriod(t.TempDir(), []time.Duration{time.Minute, 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Table())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

// msgsPerAlert extracts the trailing "X.Y msgs/alert" figure.
func msgsPerAlert(t *testing.T, row string) float64 {
	t.Helper()
	var v float64
	i := strings.LastIndex(row, "median")
	if i < 0 {
		t.Fatalf("row %q has no median field", row)
	}
	if _, err := fmt.Sscanf(row[strings.LastIndex(row, ", ")+2:], "%f msgs/alert", &v); err != nil {
		t.Fatalf("row %q: %v", row, err)
	}
	return v
}

func TestA4AckTimeoutSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := A4AckTimeoutSweep(t.TempDir(), 12, []time.Duration{2 * time.Second, 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Table())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if !strings.Contains(row.Measured, "confirmed") {
			t.Fatalf("row = %+v", row)
		}
	}
}
