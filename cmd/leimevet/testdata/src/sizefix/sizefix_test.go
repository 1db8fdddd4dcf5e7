package sizefix

// Exported is not counted: test files are not the package's API.
var Exported = F

// TestF is not counted either.
func TestF() {}
