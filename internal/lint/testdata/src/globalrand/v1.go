package globalrand

import v1 "math/rand" // want "v1\\) imported"

// The import is one finding; what is done through it is still judged.
func oldGlobal() int {
	return v1.Intn(10) // want `process-global source`
}

func oldFixed() *v1.Rand {
	return v1.New(v1.NewSource(42)) // want `constant seed`
}

func oldSeeded(seed int64) *v1.Rand {
	return v1.New(v1.NewSource(seed))
}
