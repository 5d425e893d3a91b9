//! Host facts: the run stamp, process memory and CPU time.

use std::process::Command;

/// Cores the benchmark may use: the load generator never drives more
/// threads or connections than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

pub fn git_revision() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks of 1/100 s
    // (USER_HZ). The command name (field 2) may hold spaces, so count
    // from the closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Confines this thread to the lowest-numbered core it may run on. Threads
/// it starts afterwards, and processes it spawns, inherit the mask.
///
/// Every workload runs on one core. On a 2-vCPU virtual machine the host
/// moves the two vCPUs between sibling hardware threads of one core and
/// separate cores from minute to minute: two busy threads then ran each at
/// half speed or at full speed, which moved whole runs by up to 1.5×, and
/// every cross-vCPU wake-up changed cost with it. On one core, with the
/// other vCPU idle, the program sees the same machine in every run, and
/// the calibration bursts (`calib`) see the same core it runs on.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Result<(), String> {
    use std::ffi::c_int;
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable 128-byte array and `size` is its
    // length; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = mask.iter().position(|&w| w != 0).ok_or("empty CPU mask")?;
    let lowest = mask[word] & mask[word].wrapping_neg();
    let mut one = [0u64; 16];
    one[word] = lowest;
    // SAFETY: `one` is a live 128-byte array and `size` is its length.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Result<(), String> {
    Ok(())
}
