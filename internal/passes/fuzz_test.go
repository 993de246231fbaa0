package passes

import (
	"testing"

	"tameir/internal/ir"
)

// FuzzO2 feeds arbitrary (parsed + verified) modules through the whole
// fixed -O2 pipeline with the structural and SSA verifiers armed after
// every pass; any pass crash or invariant break is a finding.
func FuzzO2(f *testing.F) {
	seeds := []string{
		`define i8 @f(i8 %x) {
entry:
  %a = mul i8 %x, 2
  ret i8 %a
}`,
		`define i8 @f(i1 %c, i8 %a, i8 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i8 [ %a, %t ], [ %b, %e ]
  ret i8 %x
}`,
		`define i8 @f(i8 %n) {
entry:
  %s = alloca i8, i32 1
  store i8 0, ptr %s
  br label %h
h:
  %i = phi i8 [ 0, %entry ], [ %i1, %b ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %b, label %x
b:
  %v = load i8, ptr %s
  %v1 = add i8 %v, %i
  store i8 %v1, ptr %s
  %i1 = add i8 %i, 1
  br label %h
x:
  %r = load i8, ptr %s
  ret i8 %r
}`,
		`define i2 @f(i2 %x, i2 %y, i1 %c) {
entry:
  %t = add nsw i2 %x, 1
  %cmp = icmp eq i2 %t, %y
  br label %head
head:
  %cc = phi i1 [ %c, %entry ], [ false, %latch ]
  br i1 %cc, label %body, label %exit
body:
  br i1 %cmp, label %then, label %latch
then:
  ret i2 %t
latch:
  br label %head
exit:
  ret i2 3
}`,
		`define i8 @f(i8 %a) {
entry:
  %fz = freeze i8 %a
  %q = udiv i8 %fz, 3
  %s = select i1 true, i8 %q, i8 poison
  ret i8 %s
}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		mod, err := ir.ParseModule(src)
		if err != nil {
			return
		}
		if err := ir.VerifyModule(mod, ir.VerifyFreeze); err != nil {
			return
		}
		cfg := DefaultFreezeConfig()
		cfg.VerifyEach = true
		O2().Run(mod, cfg) // panics on any verifier violation
	})
}
