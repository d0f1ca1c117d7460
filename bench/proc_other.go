//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The CPU and memory metrics read procfs; elsewhere the package still
// builds (so `go build ./...` stays green) but a run fails on first use.
var errNoProcfs = errors.New("bench: CPU and RSS accounting needs Linux procfs")

func childAttr() *syscall.SysProcAttr     { return nil }
func selfCPUSeconds() (float64, error)    { return 0, errNoProcfs }
func procCPUSeconds(int) (float64, error) { return 0, errNoProcfs }
func procPeakRSSMiB(int) (float64, error) { return 0, errNoProcfs }
