package faultinject

import (
	"errors"
	"syscall"
	"testing"
)

func TestDiskRuleCadencePathAndErrno(t *testing.T) {
	in := NewDisk(DiskRule{Op: DiskSync, Path: "node1", Err: "enospc", Every: 2, Max: 1})

	if _, err := in.check(DiskWrite, "node1/store/x.json"); err != nil {
		t.Fatalf("wrong op fired: %v", err)
	}
	if _, err := in.check(DiskSync, "node2/store/x.json"); err != nil {
		t.Fatalf("wrong path fired: %v", err)
	}
	if _, err := in.check(DiskSync, "node1/store/x.json"); err != nil {
		t.Fatalf("call 1 of every=2 fired: %v", err)
	}
	_, err := in.check(DiskSync, "node1/store/x.json")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("call 2 should inject ENOSPC, got %v", err)
	}
	if _, err := in.check(DiskSync, "node1/store/x.json"); err != nil {
		t.Fatalf("max=1 not honored: %v", err)
	}
	if lg := in.DiskLog(); len(lg) != 1 || lg[0].Op != DiskSync || lg[0].Call != 2 {
		t.Fatalf("log = %+v", lg)
	}
}

func TestDiskDefaultErrnoIsEIO(t *testing.T) {
	in := NewDisk(DiskRule{Op: DiskRead, Every: 1})
	_, err := in.check(DiskRead, "blob.json")
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
}

func TestCheckDiskWriteShortWrite(t *testing.T) {
	ArmDisk(NewDisk(DiskRule{Op: DiskWrite, Err: "enospc", Every: 1, Max: 1, Partial: 5}))
	defer DisarmDisk()

	n, err := CheckDiskWrite("journal", 100)
	if !errors.Is(err, syscall.ENOSPC) || n != 5 {
		t.Fatalf("short write = (%d, %v), want (5, ENOSPC)", n, err)
	}
	// Partial is clamped to the write's length.
	ArmDisk(NewDisk(DiskRule{Op: DiskWrite, Every: 1, Partial: 500}))
	n, err = CheckDiskWrite("journal", 100)
	if err == nil || n != 100 {
		t.Fatalf("clamped short write = (%d, %v)", n, err)
	}
	// After Max the seam is transparent.
	DisarmDisk()
	n, err = CheckDiskWrite("journal", 100)
	if err != nil || n != 100 {
		t.Fatalf("disarmed seam = (%d, %v)", n, err)
	}
}

func TestNilDiskInjector(t *testing.T) {
	var in *DiskInjector
	if _, err := in.check(DiskWrite, "x"); err != nil {
		t.Fatal("nil injector must inject nothing")
	}
	DisarmDisk()
	if err := CheckDisk(DiskSync, "x"); err != nil {
		t.Fatal("disarmed seam must inject nothing")
	}
}

func TestParseDiskRules(t *testing.T) {
	rules, err := ParseDiskRules("enospc@op=write,path=store,every=3,max=2,partial=12; eio@op=rename")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Op != DiskWrite || r.Path != "store" || r.Err != "enospc" ||
		r.Every != 3 || r.Max != 2 || r.Partial != 12 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if rules[1].Op != DiskRename || rules[1].Err != "eio" || rules[1].Every != 1 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if _, err := ParseDiskRules("enospc@path=x"); err == nil {
		t.Fatal("missing op should error")
	}
	if _, err := ParseDiskRules("efault@op=write"); err == nil {
		t.Fatal("unknown errno should error")
	}
}
