package gpu

import (
	"errors"
	"testing"

	"casoffinder/internal/gpu/device"
)

func TestAllocBudget(t *testing.T) {
	d := New(device.RadeonVII()) // 16 GiB
	a, err := d.Alloc(GlobalMem, 10<<30)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if d.AllocatedBytes() != 10<<30 {
		t.Errorf("AllocatedBytes = %d", d.AllocatedBytes())
	}
	if _, err := d.Alloc(GlobalMem, 7<<30); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-budget alloc error = %v, want ErrOutOfMemory", err)
	}
	if err := a.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if d.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes after free = %d", d.AllocatedBytes())
	}
	b, err := d.Alloc(GlobalMem, 7<<30)
	if err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocKinds(t *testing.T) {
	d := New(device.MI60())
	g, err := d.Alloc(GlobalMem, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Alloc(ConstantMem, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind() != GlobalMem || c.Kind() != ConstantMem {
		t.Error("Kind mismatch")
	}
	if g.Bytes() != 100 {
		t.Errorf("Bytes = %d", g.Bytes())
	}
}

func TestUseAfterFree(t *testing.T) {
	d := New(device.MI60())
	a, err := d.Alloc(GlobalMem, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Use(); err != nil {
		t.Errorf("Use before free: %v", err)
	}
	if a.released() {
		t.Error("released before free")
	}
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if !a.released() {
		t.Error("released after free = false")
	}
	if err := a.Use(); !errors.Is(err, ErrFreed) {
		t.Errorf("Use after free = %v, want ErrFreed", err)
	}
	if err := a.Free(); !errors.Is(err, ErrFreed) {
		t.Errorf("double Free = %v, want ErrFreed", err)
	}
}

func TestAllocNegative(t *testing.T) {
	d := New(device.MI60())
	if _, err := d.Alloc(GlobalMem, -1); err == nil {
		t.Error("negative alloc = nil error")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{WorkItems: 1, GlobalLoadOps: 2, GlobalLoadBytes: 8, AtomicOps: 3, Branches: 4, DivergentBranches: 1}
	b := Stats{WorkItems: 10, GlobalLoadOps: 20, GlobalLoadBytes: 80, AtomicOps: 30, Branches: 40, DivergentBranches: 10}
	a.Add(&b)
	var scaled Stats
	scaled.AddScaled(&b, 3)
	if want := (Stats{WorkItems: 30, GlobalLoadOps: 60, GlobalLoadBytes: 240, AtomicOps: 90, Branches: 120, DivergentBranches: 30}); scaled != want {
		t.Errorf("AddScaled result: %+v", scaled)
	}
	if a.WorkItems != 11 || a.GlobalLoadOps != 22 || a.GlobalLoadBytes != 88 ||
		a.AtomicOps != 33 || a.Branches != 44 || a.DivergentBranches != 11 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestItemCounterHelpers(t *testing.T) {
	d := New(device.MI60(), WithWorkers(1))
	stats, err := d.Launch(LaunchSpec{
		Name: "counters", Global: 4, Local: 4,
		Phases: func() []Phase {
			return []Phase{func(g *Group) {
				g.Each(func(it *Item) {
					if it.Stats != g.Stats() {
						t.Error("Item's Stats shard is not its group's")
					}
					for range 3 {
						it.LoadGlobal(4)
					}
					it.LoadGlobalRedundant(4)
					it.LoadLocalN(5)
					it.StoreLocalN(2)
				})
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GlobalLoadOps != 4*(3+1) || stats.GlobalLoadBytes != 4*(12+4) {
		t.Errorf("global loads: %d ops %d bytes", stats.GlobalLoadOps, stats.GlobalLoadBytes)
	}
	if stats.RedundantLoadOps != 4 {
		t.Errorf("redundant = %d", stats.RedundantLoadOps)
	}
	if stats.LocalLoadOps != 20 || stats.LocalStoreOps != 8 {
		t.Errorf("local: %d/%d", stats.LocalLoadOps, stats.LocalStoreOps)
	}
	if d.Spec().Name != "MI60" {
		t.Error("Device.Spec")
	}
}
