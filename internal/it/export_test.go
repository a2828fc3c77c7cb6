package it

// MarginalEntropyMap exposes the map accumulator of MarginalEntropyT to
// the external tests, which compare the dense path against it.
func (j *JointDist) MarginalEntropyMap() float64 { return j.marginalEntropyMap() }
