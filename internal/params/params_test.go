package params

import (
	"testing"
	"time"
)

// TestDefaultsMatchFigure4 pins the paper's implementation parameters.
func TestDefaultsMatchFigure4(t *testing.T) {
	p := Default()
	if p.TauProposer != 26 {
		t.Errorf("tau_proposer = %d", p.TauProposer)
	}
	if p.TauStep != 2000 || p.TStep != 0.685 {
		t.Errorf("step committee = %d/%v", p.TauStep, p.TStep)
	}
	if p.TauFinal != 10000 || p.TFinal != 0.74 {
		t.Errorf("final committee = %d/%v", p.TauFinal, p.TFinal)
	}
	if p.MaxSteps != 150 {
		t.Errorf("MaxSteps = %d", p.MaxSteps)
	}
	if p.LambdaPriority != 5*time.Second || p.LambdaBlock != time.Minute ||
		p.LambdaStep != 20*time.Second || p.LambdaStepVar != 5*time.Second {
		t.Errorf("lambdas = %v %v %v %v", p.LambdaPriority, p.LambdaBlock, p.LambdaStep, p.LambdaStepVar)
	}
	if p.BlockSize != 1<<20 {
		t.Errorf("block size = %d", p.BlockSize)
	}
}

func TestThresholds(t *testing.T) {
	p := Default()
	if got := p.StepThreshold(); got != 1370 {
		t.Errorf("step threshold = %d, want 1370", got)
	}
	if got := p.FinalThreshold(); got != 7400 {
		t.Errorf("final threshold = %d, want 7400", got)
	}
}
