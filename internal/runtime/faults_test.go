package runtime

import (
	"testing"
	"time"
)

func TestParseFaults(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FaultModel
	}{
		{"", FaultModel{}},
		{"none", FaultModel{}},
		{"loss=0.05,dup=1", FaultModel{Loss: 0.05, Dup: 1}},
		{"reorder=0,corrupt=0.02", FaultModel{Corrupt: 0.02}},
		{"corrupt=-0", FaultModel{}},
		{"delay=1ms,burst=3", FaultModel{Delay: time.Millisecond, Burst: 3}},
	} {
		got, err := ParseFaults(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFaults(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{
		"loss=NaN", "dup=nan", "reorder=-nan", "corrupt=Inf", "loss=-Inf",
		"loss=1.5", "dup=-0.1", "loss=x",
		"delay=-1ms", "burst=0", "jitter=0.1", "loss",
	} {
		if f, err := ParseFaults(in); err == nil {
			t.Errorf("ParseFaults(%q) = %+v, want an error", in, f)
		}
	}
}
