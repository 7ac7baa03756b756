package core

// CheckGolden lets the external test package compare with golden files
// under the same -update flag as this package's tests.
var CheckGolden = checkGolden
