// Command scenario inspects and validates declarative scenario specs
// (internal/scenario) without running anything.
//
// Usage:
//
//	scenario list                  list the shipped packs with digests
//	scenario show <pack|file>      print a spec's canonical JSON
//	scenario validate <file>...    strictly validate spec files
//
// list shows every compiled-in pack with its app, description and
// canonical digest. show resolves a shipped pack name or a spec file
// and prints the normalized canonical JSON (the bytes the digest
// covers). validate decodes each file with the same strict path the
// campaign uses — unknown fields, bad cross-field combinations and
// malformed fault specs are errors — and exits non-zero on the first
// invalid spec, so it works as a pre-commit or CI gate for spec files.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"github.com/midband5g/midband/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenario: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "show":
		if len(os.Args) != 3 {
			usage()
		}
		show(os.Args[2])
	case "validate":
		if len(os.Args) < 3 {
			usage()
		}
		validate(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: scenario list | show <pack|file> | validate <file>...\n")
	os.Exit(2)
}

func list() {
	packs, err := scenario.Packs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %-7s %-10s %s\n", "pack", "app", "digest", "description")
	for _, s := range packs {
		digest, err := s.Digest()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-7s %-10s %s\n", s.Name, s.Traffic.App, digest[:10], s.Description)
	}
}

func show(arg string) {
	s, err := scenario.Load(arg)
	if err != nil {
		log.Fatal(err)
	}
	canonical, err := s.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	var pretty json.RawMessage = canonical
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(out, '\n'))
}

func validate(paths []string) {
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		s, err := scenario.Decode(data)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		digest, err := s.Digest()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: ok (%s, app %s, digest %s)\n", path, s.Name, s.Traffic.App, digest[:10])
	}
}
