package core

import "repro/internal/cast"

// OnReparse installs fn to see every tree, or error, the engine's lazy
// re-parse builds, with the number of top-level declarations it reused.
func (e *Engine) OnReparse(fn func(name, src string, f *cast.File, reused int, err error)) {
	e.onReparse = fn
}

// ReparseFully makes every re-parse of the engine a full parse.
func (e *Engine) ReparseFully() { e.fullReparse = true }
