//! Facts about the shared host: its stolen CPU time, and a probe of its
//! speed at the moment.
//!
//! The benchmark shares its host, and neighbouring load comes and goes
//! in phases of seconds to minutes that slow every CPU-bound loop by up
//! to 1.9x. A phase can outlast a whole run, so no statistic over one
//! run's samples removes it. The probe is a fixed interpreter loop that
//! belongs to the benchmark and runs none of the repository's code, so
//! no change to the repository moves it. Timed between samples, it
//! gives the host's speed during the window, and a workload can rescale
//! its times to a quiet reference host with it.

/// The probe's time on a quiet reference host (Intel Xeon at 2.1 GHz,
/// 2 vCPUs), ns.
pub const PROBE_REF_NS: f64 = 6.5e6;

/// Host CPU time stolen by the hypervisor so far, summed over CPUs, s
/// (the `steal` column of `/proc/stat`; 0 where there is none).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / 100.0
}

/// Time one run of the probe, ns.
pub fn probe_ns() -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(interpret(std::hint::black_box(3_000_000)));
    t0.elapsed().as_nanos() as f64
}

/// The host speed a set of probe times shows: the reference time over
/// the fastest probe (1.0 on a quiet reference host, lower when slowed).
pub fn speed(probes_ns: &[f64]) -> f64 {
    let fastest = probes_ns.iter().copied().fold(f64::INFINITY, f64::min);
    if fastest.is_finite() {
        PROBE_REF_NS / fastest
    } else {
        1.0
    }
}

/// The host speed over a window: the reference time over the median
/// probe.
pub fn speed_median(probes_ns: &[f64]) -> f64 {
    PROBE_REF_NS / crate::stats::median(probes_ns)
}

/// `steps` steps of a register machine running a fixed pseudo-random
/// program of loads, stores, ALU ops and data-dependent branches over a
/// 1 MiB memory — the instruction mix of a simulator's inner loop.
fn interpret(steps: u64) -> u64 {
    const LEN: usize = 256;
    const MASK: usize = (1 << 17) - 1;
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let prog: Vec<(u64, usize, usize, u64)> = (0..LEN)
        .map(|_| {
            let v = next();
            (v % 7, (v >> 8) as usize % 16, (v >> 16) as usize % 16, v >> 24)
        })
        .collect();
    let mut mem = vec![0u64; MASK + 1];
    let mut counts = vec![0u64; 1 << 12];
    let mut regs = [0u64; 16];
    for r in &mut regs {
        *r = next();
    }
    let mut pc = 0;
    for _ in 0..steps {
        let (op, a, b, imm) = prog[pc];
        pc = (pc + 1) % LEN;
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b] ^ imm),
            1 => regs[a] ^= regs[b].rotate_left((imm & 63) as u32),
            2 => regs[a] ^= mem[(regs[b] ^ imm) as usize & MASK],
            3 => mem[regs[a] as usize & MASK] = regs[b],
            4 => {
                if regs[a] & 1 == 0 {
                    pc = (imm ^ regs[b]) as usize % LEN;
                }
            }
            5 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            _ => {
                let e = &mut counts[regs[b] as usize & 0xFFF];
                *e = e.wrapping_add(regs[a]);
                regs[a] ^= *e;
            }
        }
    }
    regs.iter().fold(0, |h, r| h ^ r)
}
