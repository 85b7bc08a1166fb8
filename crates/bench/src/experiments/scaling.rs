//! Scaling experiments (Figures 9–14): cycles per iteration as problem
//! sizes sweep from cache-resident to out-of-memory, for every storage
//! variant, on all three machine models.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use uov_kernels::{psm, stencil5};
use uov_memsim::{machines, Machine};

use crate::experiments::overhead::{psm_cpi, stencil5_cpi};
use crate::report::{fmt_f64, Table};
use crate::Scale;

fn machine(idx: usize) -> Machine {
    match idx {
        0 => machines::pentium_pro(),
        1 => machines::ultra_2(),
        2 => machines::alpha_21164(),
        _ => panic!("machine index must be 0..3"),
    }
}

/// Map `f` over `items` on at most one scoped thread per host core, each
/// claiming the next unclaimed item, and return the results in input
/// order — the table is the sequential sweep's. A panic in `f` is
/// re-raised on the calling thread with its original payload.
fn map_in_order<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let claim = || {
        let claims = std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)));
        claims
            .map_while(|i| Some((i, f(items.get(i)?))))
            .collect::<Vec<_>>()
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cores.min(items.len()))
            .map(|_| scope.spawn(claim))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Time steps for the stencil sweeps: enough for reuse to matter, small
/// enough that natural storage (`T·L`) stays hostable.
const STENCIL_T: usize = 4;

/// Array lengths swept by Figures 9–11.
///
/// At the top of the full sweep the paper's fall-out-of-memory *order*
/// appears: natural (`T·L`) dies first (4 M), OV-mapped (`2L`) next
/// (16 M), storage-optimized (`L`) last — "OV-mapped codes fall out of
/// memory at smaller problem sizes than storage mapped codes, but at much
/// larger problem sizes than natural codes" (§5.2).
pub fn stencil5_lengths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1_000, 10_000, 100_000],
        // 4 M floats ⇒ natural storage 4·4M·4 B = 64 MB: past the Pentium
        // Pro's memory, at the Ultra 2's limit. 16 M ⇒ OV storage 128 MB:
        // past every machine's memory.
        Scale::Full => vec![1_000, 10_000, 100_000, 1_000_000, 4_000_000, 16_000_000],
    }
}

/// The natural variants allocate `T·L` floats; past this length they no
/// longer fit the *host*, mirroring the paper's curves that simply end
/// when a version stops being runnable.
const NATURAL_MAX_LEN: usize = 4_000_000;

/// Figures 9 (Pentium Pro), 10 (Ultra 2), 11 (Alpha): the 5-point stencil,
/// seven series over a length sweep.
pub fn stencil5_scaling(machine_idx: usize, scale: Scale) -> Table {
    let lengths = stencil5_lengths(scale);
    let name = machine(machine_idx).name().to_string();
    let fig = 9 + machine_idx;
    let mut t = Table::new(
        format!("Figure {fig} — 5-pt stencil on the {name}, cycles/iter (T={STENCIL_T})"),
        std::iter::once("version".to_string())
            .chain(lengths.iter().map(|l| format!("L={l}")))
            .collect(),
    );
    for v in stencil5::Variant::all() {
        let mut row = vec![v.label().to_string()];
        // The lengths of one series are independent simulations: fan them
        // out across the host cores (order-preserving, so the table is
        // identical to the sequential sweep).
        row.extend(map_in_order(&lengths, |&len| {
            let natural = matches!(
                v,
                stencil5::Variant::Natural | stencil5::Variant::NaturalTiled
            );
            if natural && len > NATURAL_MAX_LEN {
                "oom".to_string()
            } else {
                fmt_f64(stencil5_cpi(machine(machine_idx), v, len, STENCIL_T, None))
            }
        }));
        t.push(row);
    }
    t
}

/// String lengths swept by Figures 12–14 (`problem size = n²` in the
/// paper's axis terms).
pub fn psm_lengths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![32, 100, 316],
        // n = 5000 ⇒ natural H 100 MB: past the Pentium Pro's and the
        // Alpha's memory.
        Scale::Full => vec![100, 316, 1_000, 2_000, 5_000],
    }
}

/// Figures 12 (Pentium Pro), 13 (Ultra 2), 14 (Alpha): protein string
/// matching, five series over a size sweep.
pub fn psm_scaling(machine_idx: usize, scale: Scale) -> Table {
    let lengths = psm_lengths(scale);
    let name = machine(machine_idx).name().to_string();
    let fig = 12 + machine_idx;
    let mut t = Table::new(
        format!("Figure {fig} — protein string matching on the {name}, cycles/iter"),
        std::iter::once("version".to_string())
            .chain(lengths.iter().map(|n| format!("n={n}")))
            .collect(),
    );
    for v in psm::Variant::all() {
        let mut row = vec![v.label().to_string()];
        row.extend(map_in_order(&lengths, |&n| {
            fmt_f64(psm_cpi(machine(machine_idx), v, n, n, None))
        }));
        t.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, label: &str, col: usize) -> f64 {
        t.rows()
            .iter()
            .find(|r| r[0] == label)
            .unwrap_or_else(|| panic!("no series {label}"))[col]
            .parse()
            .unwrap()
    }

    #[test]
    fn map_in_order_keeps_input_order_with_more_items_than_workers() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let items: Vec<u64> = (0..4 * cores as u64 + 3).collect();
        // Uneven per-item cost, so workers finish out of order.
        let work = |&x: &u64| {
            std::thread::sleep(std::time::Duration::from_micros(x % 5 * 300));
            x * x
        };
        let sequential: Vec<u64> = items.iter().map(work).collect();
        assert_eq!(map_in_order(&items, work), sequential);
        assert!(map_in_order(&[] as &[u64], work).is_empty());
    }

    #[test]
    fn map_in_order_reraises_the_original_panic_payload() {
        #[derive(Debug, PartialEq)]
        struct Fault(u64);
        let items: Vec<u64> = (0..16).collect();
        let fault_at_5 = |&x: &u64| match x {
            5 => std::panic::panic_any(Fault(x)),
            _ => x,
        };
        let caught = std::panic::catch_unwind(|| map_in_order(&items, fault_at_5)).unwrap_err();
        assert_eq!(caught.downcast_ref::<Fault>(), Some(&Fault(5)));
    }

    #[test]
    fn stencil5_quick_shapes() {
        // Quick sweep on the Pentium Pro model: at L = 100k (larger than
        // L2) the tiled OV versions must beat the untiled natural version,
        // and storage-optimized (untileable) must beat untiled natural.
        let t = stencil5_scaling(0, Scale::Quick);
        let last = 3; // L = 100,000
        let nat = col(&t, "Natural", last);
        let ov_tiled = col(&t, "OV-Mapped Tiled", last);
        let opt = col(&t, "Storage Optimized", last);
        assert!(
            ov_tiled < nat,
            "tiled OV ({ov_tiled}) must beat natural ({nat})"
        );
        assert!(
            opt < nat,
            "storage-optimized ({opt}) must beat natural ({nat})"
        );
    }

    #[test]
    fn psm_quick_shapes() {
        // At n = 316 (H ≈ 400 KB, larger than the PPro L2) OV-mapped must
        // beat natural on the Pentium Pro.
        let t = psm_scaling(0, Scale::Quick);
        let last = 3;
        let nat = col(&t, "Natural", last);
        let ov = col(&t, "OV-Mapped", last);
        assert!(ov < nat, "OV ({ov}) must beat natural ({nat}) out of cache");
    }

    #[test]
    fn psm_branch_plateau_on_ultra2() {
        // The Ultra 2's branch cost dominates: tiling must change PSM
        // cycles per iteration by only a small factor (the paper's §5.2
        // observation), in contrast to the Pentium Pro.
        let t = psm_scaling(1, Scale::Quick);
        let last = 3;
        let nat = col(&t, "Natural", last);
        let nat_tiled = col(&t, "Natural Tiled", last);
        let ratio = nat / nat_tiled;
        assert!(
            (0.5..2.0).contains(&ratio),
            "tiling should not change Ultra 2 PSM by more than 2x (ratio {ratio})"
        );
    }
}
