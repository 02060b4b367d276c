package pipeline

// StepEveryCycle makes p the reference stepper: it steps every cycle and
// never skips a quiet one.
func StepEveryCycle(p *Pipeline) { p.stepOnly = true }
