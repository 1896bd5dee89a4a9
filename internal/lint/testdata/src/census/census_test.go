package census

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
