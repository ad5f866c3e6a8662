package engine

import (
	"testing"

	"fedproxvr/internal/optim"
)

func TestStepSize(t *testing.T) {
	if StepSize(5, 2) != 0.1 {
		t.Fatalf("StepSize(5,2) = %v", StepSize(5, 2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive args")
		}
	}()
	StepSize(0, 1)
}

func TestConfigConstructors(t *testing.T) {
	c := FedAvg(10, 1, 10, 16, 100)
	if c.Name != "FedAvg" || c.Local.Mu != 0 || c.Local.Estimator != optim.SGD {
		t.Fatalf("FedAvg config wrong: %+v", c)
	}
	c = FedProx(10, 1, 0.5, 10, 16, 100)
	if c.Name != "FedProx" || c.Local.Mu != 0.5 {
		t.Fatalf("FedProx config wrong: %+v", c)
	}
	c = FedProxVR(optim.SARAH, 5, 1, 0.1, 20, 32, 100)
	if c.Name != "FedProxVR (SARAH)" || c.Local.Estimator != optim.SARAH {
		t.Fatalf("FedProxVR config wrong: %+v", c)
	}
	if c.Local.Eta != 0.2 {
		t.Fatalf("eta = %v, want 1/(5*1)", c.Local.Eta)
	}
}

func TestFSVRGConfig(t *testing.T) {
	c := FSVRG(8, 2, 10, 16, 50)
	if c.Name != "FSVRG" || c.Local.Mu != 0 || c.Local.Estimator != optim.SVRG {
		t.Fatalf("FSVRG config wrong: %+v", c)
	}
	if c.Local.Eta != 1.0/16 {
		t.Fatalf("eta = %v", c.Local.Eta)
	}
}
