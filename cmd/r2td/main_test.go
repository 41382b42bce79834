package main

import (
	"strings"
	"testing"
)

func TestParseDatasetFlag(t *testing.T) {
	cfg, err := parseDatasetFlag("name=graph,schema=g.schema,data=./d,eps=2.5,primary=Node+User")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "graph" || cfg.SchemaPath != "g.schema" || cfg.DataDir != "./d" || cfg.Epsilon != 2.5 {
		t.Fatalf("parsed: %+v", cfg)
	}
	if len(cfg.Primary) != 2 || cfg.Primary[0] != "Node" || cfg.Primary[1] != "User" {
		t.Fatalf("primary: %v", cfg.Primary)
	}

	// data defaults to "."
	cfg, err = parseDatasetFlag("name=g,schema=s,eps=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DataDir != "." {
		t.Fatalf("default data dir: %q", cfg.DataDir)
	}

	bad := []struct {
		in, wantErr string
	}{
		{"schema=s,eps=1", "needs at least name= and schema="},
		{"name=g,eps=1", "needs at least name= and schema="},
		{"name=g,schema=s", "positive eps="},
		{"name=g,schema=s,eps=-1", "positive eps="},
		{"name=g,schema=s,eps=zero", "bad eps"},
		{"name=g,schema=s,eps=NaN", "bad eps"},
		{"name=g,schema=s,eps=Inf", "bad eps"},
		{"name=g,schema=s,eps=1,color=red", "unknown key"},
		{"name=g,schema=s,eps=1,primarynode", "want key=value"},
	}
	for _, c := range bad {
		if _, err := parseDatasetFlag(c.in); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseDatasetFlag(%q) = %v, want error containing %q", c.in, err, c.wantErr)
		}
	}
}

func TestDatasetFlagsAccumulate(t *testing.T) {
	var d datasetFlags
	if err := d.Set("name=a,schema=s,eps=1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("name=b,schema=s,eps=2"); err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "a,b" {
		t.Fatalf("String() = %q", got)
	}
	if err := d.Set("garbage"); err == nil {
		t.Fatal("malformed flag should fail")
	}
}
