package bench

import (
	"strings"
	"testing"
)

// Every benchmark program must compile, run, and produce its checksum
// under both variants — the correctness backbone of E4–E7.
func TestAllProgramsBothVariants(t *testing.T) {
	for _, v := range []Variant{Baseline(), Prototype()} {
		for _, p := range Programs {
			m, err := Measure(p, v)
			if err != nil {
				t.Errorf("[%s] %s: %v", v.Name, p.Name, err)
				continue
			}
			if m.SimError != "" {
				t.Errorf("[%s] %s: simulator: %s", v.Name, p.Name, m.SimError)
				continue
			}
			if !m.ChecksumOK {
				t.Errorf("[%s] %s: checksum %d, want %d", v.Name, p.Name, m.Checksum, p.Want)
			}
			if m.Cycles == 0 || m.IRInstrs == 0 || m.ObjectBytes == 0 {
				t.Errorf("[%s] %s: missing metrics %+v", v.Name, p.Name, m)
			}
		}
	}
}

// The prototype inserts freeze instructions only via the bit-field
// lowering and loop unswitching; the paper reports 0.04%–0.29% of IR
// instructions. Check the shape the corpus supports: the baseline has
// no freezes, the prototype's freezes sit only in the two bit-field
// programs (both have some), and each fraction stays small.
func TestFreezeFractions(t *testing.T) {
	bitfield := map[string]bool{"gcc": true, "bitfields": true}
	for _, p := range Programs {
		m, err := Measure(p, Prototype())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		frac := float64(m.FreezeCount) / float64(m.IRInstrs) * 100
		if frac > 8.0 {
			t.Errorf("%s: freeze fraction %.2f%% is implausibly high", p.Name, frac)
		}
		if bitfield[p.Name] && m.FreezeCount == 0 {
			t.Errorf("%s: bit-field-heavy benchmark has no freezes", p.Name)
		}
		if !bitfield[p.Name] && m.FreezeCount != 0 {
			t.Errorf("%s: %d freezes outside the bit-field programs", p.Name, m.FreezeCount)
		}
		b, err := Measure(p, Baseline())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if b.FreezeCount != 0 {
			t.Errorf("baseline %s has %d freezes", p.Name, b.FreezeCount)
		}
	}
}

func TestReportRenders(t *testing.T) {
	var base, proto []Measurement
	for _, p := range Programs[:4] {
		b, err := Measure(p, Baseline())
		if err != nil {
			t.Fatal(err)
		}
		q, err := Measure(p, Prototype())
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, b)
		proto = append(proto, q)
	}
	var sb strings.Builder
	Report(&sb, base, proto)
	out := sb.String()
	for _, want := range []string{"E4", "E5", "E6", "E7", "perlbench", "CINT"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// E3 in miniature: the fixed passes validate cleanly; the historical
// passes are caught.
func TestValidationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("validation is slow")
	}
	fixed := Validate(true, 1, 400)
	for _, r := range fixed {
		if r.Refuted != 0 {
			t.Errorf("fixed %s: %d refuted (e.g. %s)", r.Pass, r.Refuted, r.FirstCE)
		}
		if r.Funcs == 0 {
			t.Errorf("fixed %s: no functions validated", r.Pass)
		}
	}
	legacy := Validate(false, 1, 400)
	anyRefuted := 0
	for _, r := range legacy {
		anyRefuted += r.Refuted
	}
	if anyRefuted == 0 {
		t.Error("the validator failed to catch any historical miscompilation")
	}
	var sb strings.Builder
	ReportValidation(&sb, "fixed passes, freeze semantics", fixed)
	ReportValidation(&sb, "historical passes, legacy semantics", legacy)
	if !strings.Contains(sb.String(), "instcombine") {
		t.Error("validation report incomplete")
	}
}

// The paper's third benchmark set: large single-file programs. The
// synthetic generator must produce valid MinC at every size, both
// variants must agree on the checksum, and the prototype's compile
// time must stay within a few percent.
func TestLargeSingleFileProgram(t *testing.T) {
	src := GenerateLargeProgram(120)
	if len(strings.Split(src, "\n")) < 500 {
		t.Fatalf("generated program suspiciously small: %d lines", len(strings.Split(src, "\n")))
	}
	p := Program{Name: "largefile", Suite: "LARGE", Src: src}
	base, err := Measure(p, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Measure(p, Prototype())
	if err != nil {
		t.Fatal(err)
	}
	if base.SimError != "" || proto.SimError != "" {
		t.Fatalf("simulation failed: %q / %q", base.SimError, proto.SimError)
	}
	if base.Checksum != proto.Checksum {
		t.Errorf("variants disagree: baseline %d, prototype %d", base.Checksum, proto.Checksum)
	}
	if proto.FreezeCount == 0 {
		t.Error("the bit-field kernels should have produced freezes in the prototype")
	}
	t.Logf("largefile: %d IR instrs, %d freezes (%.3f%%), %d vs %d object bytes, %d vs %d cycles",
		proto.IRInstrs, proto.FreezeCount,
		float64(proto.FreezeCount)/float64(proto.IRInstrs)*100,
		base.ObjectBytes, proto.ObjectBytes, base.Cycles, proto.Cycles)
}
