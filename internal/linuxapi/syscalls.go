package linuxapi

import (
	"sort"
	"strings"
)

// SyscallDef describes one entry in the x86-64 Linux 3.19 system-call table
// (as listed in arch/x86/syscalls/syscall_64.tbl and exposed via unistd.h).
type SyscallDef struct {
	Num  int
	Name string
	// Retired marks system calls that are declared in the table but whose
	// implementation was removed from the kernel (sys_ni_syscall); the paper
	// found five of these still attempted by applications (§3.1).
	Retired bool
	// NoEntry marks system calls that never had an x86-64 entry point but
	// are still defined in the headers (Table 3: "Ten of these system calls
	// do not have an entry point").
	NoEntry bool
}

// Syscalls is the full x86-64 system-call table of Linux 3.19, in ascending
// numeric order (numbers 0..322; 3.19 added execveat as the last entry).
// The paper rounds this population to "320 system calls".
var Syscalls = []SyscallDef{
	{Num: 0, Name: "read"},
	{Num: 1, Name: "write"},
	{Num: 2, Name: "open"},
	{Num: 3, Name: "close"},
	{Num: 4, Name: "stat"},
	{Num: 5, Name: "fstat"},
	{Num: 6, Name: "lstat"},
	{Num: 7, Name: "poll"},
	{Num: 8, Name: "lseek"},
	{Num: 9, Name: "mmap"},
	{Num: 10, Name: "mprotect"},
	{Num: 11, Name: "munmap"},
	{Num: 12, Name: "brk"},
	{Num: 13, Name: "rt_sigaction"},
	{Num: 14, Name: "rt_sigprocmask"},
	{Num: 15, Name: "rt_sigreturn"},
	{Num: 16, Name: "ioctl"},
	{Num: 17, Name: "pread64"},
	{Num: 18, Name: "pwrite64"},
	{Num: 19, Name: "readv"},
	{Num: 20, Name: "writev"},
	{Num: 21, Name: "access"},
	{Num: 22, Name: "pipe"},
	{Num: 23, Name: "select"},
	{Num: 24, Name: "sched_yield"},
	{Num: 25, Name: "mremap"},
	{Num: 26, Name: "msync"},
	{Num: 27, Name: "mincore"},
	{Num: 28, Name: "madvise"},
	{Num: 29, Name: "shmget"},
	{Num: 30, Name: "shmat"},
	{Num: 31, Name: "shmctl"},
	{Num: 32, Name: "dup"},
	{Num: 33, Name: "dup2"},
	{Num: 34, Name: "pause"},
	{Num: 35, Name: "nanosleep"},
	{Num: 36, Name: "getitimer"},
	{Num: 37, Name: "alarm"},
	{Num: 38, Name: "setitimer"},
	{Num: 39, Name: "getpid"},
	{Num: 40, Name: "sendfile"},
	{Num: 41, Name: "socket"},
	{Num: 42, Name: "connect"},
	{Num: 43, Name: "accept"},
	{Num: 44, Name: "sendto"},
	{Num: 45, Name: "recvfrom"},
	{Num: 46, Name: "sendmsg"},
	{Num: 47, Name: "recvmsg"},
	{Num: 48, Name: "shutdown"},
	{Num: 49, Name: "bind"},
	{Num: 50, Name: "listen"},
	{Num: 51, Name: "getsockname"},
	{Num: 52, Name: "getpeername"},
	{Num: 53, Name: "socketpair"},
	{Num: 54, Name: "setsockopt"},
	{Num: 55, Name: "getsockopt"},
	{Num: 56, Name: "clone"},
	{Num: 57, Name: "fork"},
	{Num: 58, Name: "vfork"},
	{Num: 59, Name: "execve"},
	{Num: 60, Name: "exit"},
	{Num: 61, Name: "wait4"},
	{Num: 62, Name: "kill"},
	{Num: 63, Name: "uname"},
	{Num: 64, Name: "semget"},
	{Num: 65, Name: "semop"},
	{Num: 66, Name: "semctl"},
	{Num: 67, Name: "shmdt"},
	{Num: 68, Name: "msgget"},
	{Num: 69, Name: "msgsnd"},
	{Num: 70, Name: "msgrcv"},
	{Num: 71, Name: "msgctl"},
	{Num: 72, Name: "fcntl"},
	{Num: 73, Name: "flock"},
	{Num: 74, Name: "fsync"},
	{Num: 75, Name: "fdatasync"},
	{Num: 76, Name: "truncate"},
	{Num: 77, Name: "ftruncate"},
	{Num: 78, Name: "getdents"},
	{Num: 79, Name: "getcwd"},
	{Num: 80, Name: "chdir"},
	{Num: 81, Name: "fchdir"},
	{Num: 82, Name: "rename"},
	{Num: 83, Name: "mkdir"},
	{Num: 84, Name: "rmdir"},
	{Num: 85, Name: "creat"},
	{Num: 86, Name: "link"},
	{Num: 87, Name: "unlink"},
	{Num: 88, Name: "symlink"},
	{Num: 89, Name: "readlink"},
	{Num: 90, Name: "chmod"},
	{Num: 91, Name: "fchmod"},
	{Num: 92, Name: "chown"},
	{Num: 93, Name: "fchown"},
	{Num: 94, Name: "lchown"},
	{Num: 95, Name: "umask"},
	{Num: 96, Name: "gettimeofday"},
	{Num: 97, Name: "getrlimit"},
	{Num: 98, Name: "getrusage"},
	{Num: 99, Name: "sysinfo"},
	{Num: 100, Name: "times"},
	{Num: 101, Name: "ptrace"},
	{Num: 102, Name: "getuid"},
	{Num: 103, Name: "syslog"},
	{Num: 104, Name: "getgid"},
	{Num: 105, Name: "setuid"},
	{Num: 106, Name: "setgid"},
	{Num: 107, Name: "geteuid"},
	{Num: 108, Name: "getegid"},
	{Num: 109, Name: "setpgid"},
	{Num: 110, Name: "getppid"},
	{Num: 111, Name: "getpgrp"},
	{Num: 112, Name: "setsid"},
	{Num: 113, Name: "setreuid"},
	{Num: 114, Name: "setregid"},
	{Num: 115, Name: "getgroups"},
	{Num: 116, Name: "setgroups"},
	{Num: 117, Name: "setresuid"},
	{Num: 118, Name: "getresuid"},
	{Num: 119, Name: "setresgid"},
	{Num: 120, Name: "getresgid"},
	{Num: 121, Name: "getpgid"},
	{Num: 122, Name: "setfsuid"},
	{Num: 123, Name: "setfsgid"},
	{Num: 124, Name: "getsid"},
	{Num: 125, Name: "capget"},
	{Num: 126, Name: "capset"},
	{Num: 127, Name: "rt_sigpending"},
	{Num: 128, Name: "rt_sigtimedwait"},
	{Num: 129, Name: "rt_sigqueueinfo"},
	{Num: 130, Name: "rt_sigsuspend"},
	{Num: 131, Name: "sigaltstack"},
	{Num: 132, Name: "utime"},
	{Num: 133, Name: "mknod"},
	{Num: 134, Name: "uselib", Retired: true},
	{Num: 135, Name: "personality"},
	{Num: 136, Name: "ustat"},
	{Num: 137, Name: "statfs"},
	{Num: 138, Name: "fstatfs"},
	{Num: 139, Name: "sysfs"},
	{Num: 140, Name: "getpriority"},
	{Num: 141, Name: "setpriority"},
	{Num: 142, Name: "sched_setparam"},
	{Num: 143, Name: "sched_getparam"},
	{Num: 144, Name: "sched_setscheduler"},
	{Num: 145, Name: "sched_getscheduler"},
	{Num: 146, Name: "sched_get_priority_max"},
	{Num: 147, Name: "sched_get_priority_min"},
	{Num: 148, Name: "sched_rr_get_interval"},
	{Num: 149, Name: "mlock"},
	{Num: 150, Name: "munlock"},
	{Num: 151, Name: "mlockall"},
	{Num: 152, Name: "munlockall"},
	{Num: 153, Name: "vhangup"},
	{Num: 154, Name: "modify_ldt"},
	{Num: 155, Name: "pivot_root"},
	{Num: 156, Name: "_sysctl"},
	{Num: 157, Name: "prctl"},
	{Num: 158, Name: "arch_prctl"},
	{Num: 159, Name: "adjtimex"},
	{Num: 160, Name: "setrlimit"},
	{Num: 161, Name: "chroot"},
	{Num: 162, Name: "sync"},
	{Num: 163, Name: "acct"},
	{Num: 164, Name: "settimeofday"},
	{Num: 165, Name: "mount"},
	{Num: 166, Name: "umount2"},
	{Num: 167, Name: "swapon"},
	{Num: 168, Name: "swapoff"},
	{Num: 169, Name: "reboot"},
	{Num: 170, Name: "sethostname"},
	{Num: 171, Name: "setdomainname"},
	{Num: 172, Name: "iopl"},
	{Num: 173, Name: "ioperm"},
	{Num: 174, Name: "create_module", Retired: true, NoEntry: true},
	{Num: 175, Name: "init_module"},
	{Num: 176, Name: "delete_module"},
	{Num: 177, Name: "get_kernel_syms", Retired: true, NoEntry: true},
	{Num: 178, Name: "query_module", Retired: true, NoEntry: true},
	{Num: 179, Name: "quotactl"},
	{Num: 180, Name: "nfsservctl", Retired: true},
	{Num: 181, Name: "getpmsg", NoEntry: true},
	{Num: 182, Name: "putpmsg", NoEntry: true},
	{Num: 183, Name: "afs_syscall", Retired: true, NoEntry: true},
	{Num: 184, Name: "tuxcall", NoEntry: true},
	{Num: 185, Name: "security", Retired: true, NoEntry: true},
	{Num: 186, Name: "gettid"},
	{Num: 187, Name: "readahead"},
	{Num: 188, Name: "setxattr"},
	{Num: 189, Name: "lsetxattr"},
	{Num: 190, Name: "fsetxattr"},
	{Num: 191, Name: "getxattr"},
	{Num: 192, Name: "lgetxattr"},
	{Num: 193, Name: "fgetxattr"},
	{Num: 194, Name: "listxattr"},
	{Num: 195, Name: "llistxattr"},
	{Num: 196, Name: "flistxattr"},
	{Num: 197, Name: "removexattr"},
	{Num: 198, Name: "lremovexattr"},
	{Num: 199, Name: "fremovexattr"},
	{Num: 200, Name: "tkill"},
	{Num: 201, Name: "time"},
	{Num: 202, Name: "futex"},
	{Num: 203, Name: "sched_setaffinity"},
	{Num: 204, Name: "sched_getaffinity"},
	{Num: 205, Name: "set_thread_area", NoEntry: true},
	{Num: 206, Name: "io_setup"},
	{Num: 207, Name: "io_destroy"},
	{Num: 208, Name: "io_getevents"},
	{Num: 209, Name: "io_submit"},
	{Num: 210, Name: "io_cancel"},
	{Num: 211, Name: "get_thread_area", NoEntry: true},
	{Num: 212, Name: "lookup_dcookie"},
	{Num: 213, Name: "epoll_create"},
	{Num: 214, Name: "epoll_ctl_old", NoEntry: true},
	{Num: 215, Name: "epoll_wait_old", NoEntry: true},
	{Num: 216, Name: "remap_file_pages"},
	{Num: 217, Name: "getdents64"},
	{Num: 218, Name: "set_tid_address"},
	{Num: 219, Name: "restart_syscall"},
	{Num: 220, Name: "semtimedop"},
	{Num: 221, Name: "fadvise64"},
	{Num: 222, Name: "timer_create"},
	{Num: 223, Name: "timer_settime"},
	{Num: 224, Name: "timer_gettime"},
	{Num: 225, Name: "timer_getoverrun"},
	{Num: 226, Name: "timer_delete"},
	{Num: 227, Name: "clock_settime"},
	{Num: 228, Name: "clock_gettime"},
	{Num: 229, Name: "clock_getres"},
	{Num: 230, Name: "clock_nanosleep"},
	{Num: 231, Name: "exit_group"},
	{Num: 232, Name: "epoll_wait"},
	{Num: 233, Name: "epoll_ctl"},
	{Num: 234, Name: "tgkill"},
	{Num: 235, Name: "utimes"},
	{Num: 236, Name: "vserver", Retired: true, NoEntry: true},
	{Num: 237, Name: "mbind"},
	{Num: 238, Name: "set_mempolicy"},
	{Num: 239, Name: "get_mempolicy"},
	{Num: 240, Name: "mq_open"},
	{Num: 241, Name: "mq_unlink"},
	{Num: 242, Name: "mq_timedsend"},
	{Num: 243, Name: "mq_timedreceive"},
	{Num: 244, Name: "mq_notify"},
	{Num: 245, Name: "mq_getsetattr"},
	{Num: 246, Name: "kexec_load"},
	{Num: 247, Name: "waitid"},
	{Num: 248, Name: "add_key"},
	{Num: 249, Name: "request_key"},
	{Num: 250, Name: "keyctl"},
	{Num: 251, Name: "ioprio_set"},
	{Num: 252, Name: "ioprio_get"},
	{Num: 253, Name: "inotify_init"},
	{Num: 254, Name: "inotify_add_watch"},
	{Num: 255, Name: "inotify_rm_watch"},
	{Num: 256, Name: "migrate_pages"},
	{Num: 257, Name: "openat"},
	{Num: 258, Name: "mkdirat"},
	{Num: 259, Name: "mknodat"},
	{Num: 260, Name: "fchownat"},
	{Num: 261, Name: "futimesat"},
	{Num: 262, Name: "newfstatat"},
	{Num: 263, Name: "unlinkat"},
	{Num: 264, Name: "renameat"},
	{Num: 265, Name: "linkat"},
	{Num: 266, Name: "symlinkat"},
	{Num: 267, Name: "readlinkat"},
	{Num: 268, Name: "fchmodat"},
	{Num: 269, Name: "faccessat"},
	{Num: 270, Name: "pselect6"},
	{Num: 271, Name: "ppoll"},
	{Num: 272, Name: "unshare"},
	{Num: 273, Name: "set_robust_list"},
	{Num: 274, Name: "get_robust_list"},
	{Num: 275, Name: "splice"},
	{Num: 276, Name: "tee"},
	{Num: 277, Name: "sync_file_range"},
	{Num: 278, Name: "vmsplice"},
	{Num: 279, Name: "move_pages"},
	{Num: 280, Name: "utimensat"},
	{Num: 281, Name: "epoll_pwait"},
	{Num: 282, Name: "signalfd"},
	{Num: 283, Name: "timerfd_create"},
	{Num: 284, Name: "eventfd"},
	{Num: 285, Name: "fallocate"},
	{Num: 286, Name: "timerfd_settime"},
	{Num: 287, Name: "timerfd_gettime"},
	{Num: 288, Name: "accept4"},
	{Num: 289, Name: "signalfd4"},
	{Num: 290, Name: "eventfd2"},
	{Num: 291, Name: "epoll_create1"},
	{Num: 292, Name: "dup3"},
	{Num: 293, Name: "pipe2"},
	{Num: 294, Name: "inotify_init1"},
	{Num: 295, Name: "preadv"},
	{Num: 296, Name: "pwritev"},
	{Num: 297, Name: "rt_tgsigqueueinfo"},
	{Num: 298, Name: "perf_event_open"},
	{Num: 299, Name: "recvmmsg"},
	{Num: 300, Name: "fanotify_init"},
	{Num: 301, Name: "fanotify_mark"},
	{Num: 302, Name: "prlimit64"},
	{Num: 303, Name: "name_to_handle_at"},
	{Num: 304, Name: "open_by_handle_at"},
	{Num: 305, Name: "clock_adjtime"},
	{Num: 306, Name: "syncfs"},
	{Num: 307, Name: "sendmmsg"},
	{Num: 308, Name: "setns"},
	{Num: 309, Name: "getcpu"},
	{Num: 310, Name: "process_vm_readv"},
	{Num: 311, Name: "process_vm_writev"},
	{Num: 312, Name: "kcmp"},
	{Num: 313, Name: "finit_module"},
	{Num: 314, Name: "sched_setattr"},
	{Num: 315, Name: "sched_getattr"},
	{Num: 316, Name: "renameat2"},
	{Num: 317, Name: "seccomp"},
	{Num: 318, Name: "getrandom"},
	{Num: 319, Name: "memfd_create"},
	{Num: 320, Name: "kexec_file_load"},
	{Num: 321, Name: "bpf"},
	{Num: 322, Name: "execveat"},
}

var (
	syscallByNum  map[int]*SyscallDef
	syscallByName map[string]*SyscallDef
)

func init() {
	syscallByNum = make(map[int]*SyscallDef, len(Syscalls))
	syscallByName = make(map[string]*SyscallDef, len(Syscalls))
	for i := range Syscalls {
		d := &Syscalls[i]
		syscallByNum[d.Num] = d
		syscallByName[d.Name] = d
	}
}

// SyscallByNum returns the table entry for a system-call number, or nil if
// the number is outside the Linux 3.19 x86-64 table.
func SyscallByNum(num int) *SyscallDef { return syscallByNum[num] }

// SyscallByName returns the table entry for a system-call name, or nil.
func SyscallByName(name string) *SyscallDef { return syscallByName[name] }

// SplitSyscalls trims, dedups and sorts names, splitting off any not in
// the table — the canonical form of a submitted syscall set.
func SplitSyscalls(names []string) (known, unknown []string) {
	seen := make(map[string]bool, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		if SyscallByName(name) != nil {
			known = append(known, name)
		} else {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(known)
	sort.Strings(unknown)
	return known, unknown
}

// SyscallCount is the number of entries in the x86-64 table.
func SyscallCount() int { return len(Syscalls) }

// RetiredSyscalls returns the names of system calls that are officially
// retired but still defined in the table (§3.1 found five of these still
// attempted by applications for backward compatibility).
func RetiredSyscalls() []string {
	var out []string
	for i := range Syscalls {
		if Syscalls[i].Retired {
			out = append(out, Syscalls[i].Name)
		}
	}
	return out
}
