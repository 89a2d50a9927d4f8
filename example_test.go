package sempatch_test

import (
	"fmt"
	"os"

	sempatch "repro"
)

// ExampleApplier is the 60-second quickstart from the README: parse a
// semantic patch, apply it to one file, print the unified diff.
func ExampleApplier() {
	patch, err := sempatch.ParsePatch("swap.cocci", `@@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if err != nil {
		panic(err)
	}
	src := "void setup(int x)\n{\n\told_api(x, 1);\n}\n"
	res, err := sempatch.NewApplier(patch, sempatch.Options{}).
		Apply(sempatch.File{Name: "x.c", Src: src})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Diffs["x.c"])
	// Output:
	// --- a/x.c
	// +++ b/x.c
	// @@ -1,4 +1,4 @@
	//  void setup(int x)
	//  {
	// -	old_api(x, 1);
	// +	new_api(x, 1);
	//  }
}

// ExampleCampaign_onePatch applies one patch across a whole file set with a
// worker pool: a campaign of one. Results stream back in input order
// whatever the worker count, so the output below is deterministic.
func ExampleCampaign_onePatch() {
	patch, err := sempatch.ParsePatch("swap.cocci", `@@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if err != nil {
		panic(err)
	}
	files := []sempatch.File{
		{Name: "a.c", Src: "void a(void)\n{\n\told_api(1);\n}\n"},
		{Name: "b.c", Src: "void b(void)\n{\n\tfine();\n}\n"},
		{Name: "c.c", Src: "void c(void)\n{\n\told_api(2);\n}\n"},
	}
	ca := sempatch.NewCampaign([]*sempatch.Patch{patch}, sempatch.Options{Workers: 4})
	for fr := range ca.ApplyAll(files) {
		if fr.Err != nil {
			panic(fr.Err)
		}
		fmt.Printf("%s changed=%v\n", fr.Name, fr.Changed())
	}
	// Output:
	// a.c changed=true
	// b.c changed=false
	// c.c changed=true
}

// ExampleCampaign applies an ordered collection of patches in one sweep:
// each file sees the patches in order (the second fires on the first's
// output), but is parsed at most once.
func ExampleCampaign() {
	rename, err := sempatch.ParsePatch("rename.cocci", `@@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if err != nil {
		panic(err)
	}
	harden, err := sempatch.ParsePatch("harden.cocci", `@@
expression list el;
@@
- new_api(el)
+ checked_api(el)
`)
	if err != nil {
		panic(err)
	}
	files := []sempatch.File{
		{Name: "a.c", Src: "void a(void)\n{\n\told_api(1);\n}\n"},
		{Name: "b.c", Src: "void b(void)\n{\n\tfine();\n}\n"},
	}
	ca := sempatch.NewCampaign([]*sempatch.Patch{rename, harden}, sempatch.Options{Workers: 4})
	for fr := range ca.ApplyAll(files) {
		if fr.Err != nil {
			panic(fr.Err)
		}
		fmt.Printf("%s changed=%v", fr.Name, fr.Changed())
		for _, o := range fr.Patches {
			fmt.Printf(" [%s changed=%v skipped=%v]", o.Patch, o.Changed, o.Skipped)
		}
		fmt.Println()
	}
	// Output:
	// a.c changed=true [rename.cocci changed=true skipped=false] [harden.cocci changed=true skipped=false]
	// b.c changed=false [rename.cocci changed=false skipped=true] [harden.cocci changed=false skipped=true]
}

// ExampleCampaign_cache shows the persistent corpus index: the first
// run populates the cache, the second replays every unchanged file's
// result without scanning, parsing, or matching it. Outputs are identical
// either way.
func ExampleCampaign_cache() {
	patch, err := sempatch.ParsePatch("swap.cocci", `@@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if err != nil {
		panic(err)
	}
	files := []sempatch.File{
		{Name: "a.c", Src: "void a(void)\n{\n\told_api(1);\n}\n"},
		{Name: "b.c", Src: "void b(void)\n{\n\tfine();\n}\n"},
		{Name: "c.c", Src: "void c(void)\n{\n\told_api(2);\n}\n"},
	}
	dir, err := os.MkdirTemp("", "gocci-cache-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	opts := sempatch.Options{CacheDir: dir}

	patches := []*sempatch.Patch{patch}
	cold, err := sempatch.NewCampaign(patches, opts).ApplyAllFunc(files, nil)
	if err != nil {
		panic(err)
	}
	warm, err := sempatch.NewCampaign(patches, opts).ApplyAllFunc(files, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold: changed=%d cached=%d\n", cold.Changed, cold.PerPatch[0].Cached)
	fmt.Printf("warm: changed=%d cached=%d\n", warm.Changed, warm.PerPatch[0].Cached)
	// Output:
	// cold: changed=2 cached=0
	// warm: changed=2 cached=3
}

// ExampleCampaign_applyAllFunc shows the callback form with aggregate and
// per-patch statistics — what `gocci -r --stats` prints is built on this.
func ExampleCampaign_applyAllFunc() {
	patch, err := sempatch.ParsePatch("swap.cocci", `@@
expression list el;
@@
- old_api(el)
+ new_api(el)
`)
	if err != nil {
		panic(err)
	}
	files := []sempatch.File{
		{Name: "a.c", Src: "void a(void)\n{\n\told_api(1);\n}\n"},
		{Name: "b.c", Src: "void b(void)\n{\n\tfine();\n}\n"},
	}
	st, err := sempatch.NewCampaign([]*sempatch.Patch{patch}, sempatch.Options{}).
		ApplyAllFunc(files, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("files=%d matched=%d changed=%d errors=%d\n",
		st.Files, st.PerPatch[0].Matched, st.Changed, st.Errors)
	// Output:
	// files=2 matched=1 changed=1 errors=0
}
