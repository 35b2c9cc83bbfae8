package a

import "testing"

func TestOnlyFromTest(t *testing.T) { OnlyFromTest() }
