package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/certify"
	"repro/internal/summary"
)

func TestSettingRoundTrip(t *testing.T) {
	for _, s := range summary.AllSettings {
		name := SettingName(s)
		got, err := ParseSetting(name)
		if err != nil || got != s {
			t.Errorf("ParseSetting(SettingName(%v)) = %v, %v", s, got, err)
		}
	}
	if s, err := ParseSetting(""); err != nil || s != summary.SettingAttrDepFK {
		t.Errorf("empty setting should default to attr+fk, got %v, %v", s, err)
	}
	if _, err := ParseSetting("bogus"); err == nil {
		t.Error("bogus setting accepted")
	}
}

func TestMethodRoundTrip(t *testing.T) {
	for _, m := range []summary.Method{summary.TypeI, summary.TypeII} {
		got, err := ParseMethod(MethodName(m))
		if err != nil || got != m {
			t.Errorf("ParseMethod(MethodName(%v)) = %v, %v", m, got, err)
		}
	}
	if m, err := ParseMethod(""); err != nil || m != summary.TypeII {
		t.Errorf("empty method should default to type2, got %v, %v", m, err)
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestSchemaBuild(t *testing.T) {
	ws := &Schema{
		Relations: []Relation{
			{Name: "Account", Attrs: []string{"Name", "CustomerId"}, Key: []string{"Name"}},
			{Name: "Savings", Attrs: []string{"CustomerId", "Balance"}, Key: []string{"CustomerId"}},
		},
		ForeignKeys: []ForeignKey{
			{Name: "fS", From: "Account", FromAttrs: []string{"CustomerId"}, To: "Savings", ToAttrs: []string{"CustomerId"}},
		},
	}
	s, err := ws.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasRelation("Account") || !s.HasRelation("Savings") || s.ForeignKey("fS") == nil {
		t.Errorf("schema missing declared elements: %s", s)
	}

	bad := &Schema{Relations: []Relation{{Name: "R", Attrs: []string{"a"}, Key: []string{"missing"}}}}
	if _, err := bad.Build(); err == nil {
		t.Error("schema with bad key accepted")
	}
}

func TestCheckRequestConfig(t *testing.T) {
	cfg, err := (&CheckRequest{Setting: "tpl", Method: "type1", UnfoldBound: 1}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Setting != summary.SettingTplDep || cfg.Method != summary.TypeI || cfg.UnfoldBound != 1 {
		t.Errorf("config = %+v", cfg)
	}
	if _, err := (&CheckRequest{Setting: "bogus"}).Config(); err == nil {
		t.Error("bogus setting accepted")
	}
	if _, err := (&CheckRequest{Method: "bogus"}).Config(); err == nil {
		t.Error("bogus method accepted")
	}
}

// TestCertifyRequestSchedules: the server's budget is the request's
// max_schedules up to certify.MaxRequestSchedules, the cap when the request
// names none, and a *CodedError above it.
func TestCertifyRequestSchedules(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{0, certify.MaxRequestSchedules},
		{-1, certify.MaxRequestSchedules},
		{1000, 1000},
		{certify.MaxRequestSchedules, certify.MaxRequestSchedules},
	} {
		got, err := (&CertifyRequest{MaxSchedules: tc.req}).Schedules()
		if err != nil || got != tc.want {
			t.Errorf("max_schedules %d resolves to %d, %v; want %d", tc.req, got, err, tc.want)
		}
	}
	_, err := (&CertifyRequest{MaxSchedules: certify.MaxRequestSchedules + 1}).Schedules()
	var coded *CodedError
	if !errors.As(err, &coded) || coded.Code != "max_schedules_too_large" {
		t.Errorf("max_schedules over the cap: %v, want a max_schedules_too_large CodedError", err)
	}
}

func TestNewCheckResponse(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()

	res, err := sess.Check(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewCheckResponse(cfg, bench.Programs, res)
	if resp.Robust {
		t.Fatal("full SmallBank must not be robust")
	}
	if resp.Setting != "attr+fk" || resp.Method != "type2" || resp.UnfoldBound != 2 {
		t.Errorf("config echo = %s/%s/%d", resp.Setting, resp.Method, resp.UnfoldBound)
	}
	if len(resp.Programs) != 5 || resp.Programs[0] != "Am" {
		t.Errorf("programs = %v", resp.Programs)
	}
	if resp.Witness == nil || len(resp.Witness.Cycle) == 0 {
		t.Error("non-robust response must carry a witness")
	}
	if resp.Graph.Nodes != 5 || resp.Graph.Edges == 0 {
		t.Errorf("graph stats = %+v", resp.Graph)
	}

	rep, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := NewSubsetsResponse(cfg, bench.Programs, rep)
	if len(sub.Robust) != len(rep.Robust) || len(sub.Maximal) != len(rep.Maximal) {
		t.Errorf("subset counts drifted: %d/%d vs %d/%d",
			len(sub.Robust), len(sub.Maximal), len(rep.Robust), len(rep.Maximal))
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	resp := &CheckResponse{Setting: "attr+fk", Method: "type2", UnfoldBound: 2, Programs: []string{"Am"}, Robust: true}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, resp); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, resp); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteJSON is not deterministic")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Error("WriteJSON must end with a newline")
	}
}
