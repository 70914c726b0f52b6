package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the child receive SIGKILL when the harness dies,
// so a killed harness leaves no -as-server process running.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
