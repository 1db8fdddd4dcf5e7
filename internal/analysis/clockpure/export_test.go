package clockpure

// Packages exposes the model-clock package list to the external test that
// pins it.
var Packages = modelClockPackages
