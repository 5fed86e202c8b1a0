package sim

// WarmKey exposes the warm-state pool's key to the external key tests,
// which also need internal/store (an import internal tests cannot make).
var WarmKey = keyOf
