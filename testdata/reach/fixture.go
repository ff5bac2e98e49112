// Package fixture is the public package of the reachability test's
// fixture module: its exported names are roots.
package fixture

import "fixture/internal/lib"

// Use is the only public entry point.
func Use() string { return lib.Live() }
