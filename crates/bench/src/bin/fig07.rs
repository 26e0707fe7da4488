//! Regenerate Figure 7: the DMA/SPE double-buffering synchronization
//! schedule — operand transfers (T), computation (C), and result
//! write-backs (R) overlapping across Local-Store chunks.
use plf_cellbe::timing::{CellCalibration, KernelKind};
use plf_cellbe::{double_buffered_schedule, render_gantt};
use plf_phylo::kernels::SimdSchedule;

fn main() {
    // One CondLikeDown call on one PS3 SPE: 8,543-pattern real data set
    // split 6 ways, then chunked to the Local Store.
    let cal = CellCalibration::default();
    let patterns_per_spe = 8543usize.div_ceil(6);
    let chunks = cal.chunk_costs(
        KernelKind::Down,
        SimdSchedule::ColWise,
        patterns_per_spe,
        4,
        6,
    );
    println!(
        "Figure 7: double-buffered DMA/compute schedule (one SPE, CondLikeDown,\n\
         {} patterns in {} Local-Store chunks; digits are chunk ids)\n",
        patterns_per_spe,
        chunks.len()
    );
    let events = double_buffered_schedule(&chunks);
    print!("{}", render_gantt(&events, 100));
    let serial: f64 = chunks.iter().map(|c| c.dma_in + c.compute + c.dma_out).sum();
    let overlapped = events.iter().fold(0.0f64, |m, e| m.max(e.end));
    println!(
        "\nwithout double buffering this chunk stream would take {:.1} µs ({:.0}% longer)",
        serial * 1e6,
        100.0 * (serial / overlapped - 1.0)
    );
}
