//! Process CPU time and resident set, read from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on every
/// Linux architecture the workspace builds for).
const USER_HZ: f64 = 100.0;
/// Page size behind `/proc/self/statm`.
const PAGE: u64 = 4096;

/// Process user + system CPU seconds so far (10 ms resolution).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Resident set size in bytes.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 =
        statm.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("statm resident field");
    pages * PAGE
}
