// Package hpc is the shipped-campaign registry: the paper's headline HPC
// transformations (CUDA→HIP, OpenACC→OpenMP) packaged as named, versioned
// semantic-patch campaigns runnable through the engine's batch runner. Where
// internal/patchlib embeds the paper's listings as single-file experiments,
// this package ships the same transformations as production campaigns — the
// SmPL text is generated from the CUDA→HIP dictionaries (dict.go) or wired
// to the live translator (internal/accomp) through versioned script hooks,
// so the campaign CLIs inherit the prefilter, worker pool, per-function
// cache, and persistent result cache for free. testdata holds each
// campaign's expected outputs.
//
// A campaign's generated patch text embeds the dictionary entries it was
// generated from, so the persistent result cache self-invalidates when a
// dictionary changes; script hooks that call live Go code declare a version
// (RegisterScriptVersioned) derived from the code's own fingerprint for the
// same reason.
package hpc

import (
	"fmt"

	sempatch "repro"
)

// Campaign is one shipped HPC transformation: an ordered list of semantic
// patches, the script hooks they need, and the dialect they must be run
// under.
type Campaign struct {
	// Name is the registry key ("hipify", "acc2omp", "acc2omp-offload").
	Name string
	// Title is the one-line description shown by --list-campaigns.
	Title string
	// Version identifies this campaign's generation logic; dictionary and
	// translator content is fingerprinted separately (via patch text and
	// hook versions), so Version only moves when the patch shapes change.
	Version string
	// CPlusPlus, Std, and CUDA are the dialect the member patches require;
	// Build overlays them onto the caller's options.
	CPlusPlus bool
	Std       int
	CUDA      bool

	members []member
	hooks   []hook
}

// member is one patch of the campaign, in application order.
type member struct {
	name string // the member's .cocci name, shown in per-patch stats
	text string // SmPL source
}

// hook is one native Go script handler with its cache-keying version.
type hook struct {
	rule    string
	version string
	fn      sempatch.ScriptFunc
}

// PatchNames lists the member patch names in application order.
func (c *Campaign) PatchNames() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.name
	}
	return out
}

// PatchText returns the SmPL source of the named member ("" when absent) —
// exposed for tests and tooling that audit the generated patches.
func (c *Campaign) PatchText(name string) string {
	for _, m := range c.members {
		if m.name == name {
			return m.text
		}
	}
	return ""
}

// Patches parses every member into the public patch type.
func (c *Campaign) Patches() ([]*sempatch.Patch, error) {
	out := make([]*sempatch.Patch, len(c.members))
	for i, m := range c.members {
		p, err := sempatch.ParsePatch(m.name, m.text)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

// Options overlays the campaign's required dialect onto base; every other
// knob (workers, cache, prefilter, verify) stays the caller's.
func (c *Campaign) Options(base sempatch.Options) sempatch.Options {
	base.CPlusPlus, base.Std, base.CUDA = c.CPlusPlus, c.Std, c.CUDA
	return base
}

// Build compiles the campaign for batch application under the caller's
// options (dialect fields overridden by the campaign's) and registers its
// script hooks with their versions, keeping the persistent result cache
// sound and enabled.
func (c *Campaign) Build(base sempatch.Options) (*sempatch.Campaign, error) {
	patches, err := c.Patches()
	if err != nil {
		return nil, err
	}
	ca := sempatch.NewCampaign(patches, c.Options(base))
	for _, h := range c.hooks {
		ca.RegisterScriptVersioned(h.rule, h.version, h.fn)
	}
	return ca, nil
}

// Campaigns returns the registry in stable order.
func Campaigns() []*Campaign {
	return []*Campaign{acc2omp(false), acc2omp(true), hipifyCampaign(), checksCampaign()}
}

// ByName looks a shipped campaign up.
func ByName(name string) (*Campaign, bool) {
	for _, c := range Campaigns() {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}
