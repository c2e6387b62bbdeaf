//! Pins the process to one CPU.
//!
//! On a small VM a futex wake-up that crosses vCPUs costs tens of
//! microseconds (the sleeping vCPU has to be kicked by the hypervisor),
//! and whether the product's pollers and service threads land on the
//! driver's vCPU is luck: identical `rpc-echo` runs measured 8.5 and 45
//! kops/s on the host clock. On one CPU every hand-off is a local context
//! switch, and the host metrics measure the simulator's own work.

/// `cpu_set_t`: 1024 CPUs, one bit each.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to the CPU it is running on (where the scheduler just placed a fresh
/// process: the idlest one). Returns that CPU, or `None` if the kernel
/// refused (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Option<usize> {
    // SAFETY: takes no arguments and only reads the caller's CPU number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut one: CpuSet = [0; 16];
    *one.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, the layout
    // glibc documents for `cpu_set_t`, and the call only reads it; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Option<usize> {
    None
}
