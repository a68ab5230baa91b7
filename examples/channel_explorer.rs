//! Explores the PHY substrate directly: walks a virtual client along the
//! road and prints each AP's mean SNR, instantaneous ESNR, and the oracle
//! best AP — the raw material behind the paper's Fig 2 and Fig 10.
//!
//! ```sh
//! cargo run --release --example channel_explorer
//! ```

use wgtt::core::world::scenario_link;
use wgtt::phy::{
    DeploymentConfig, EsnrMemo, GuardInterval, LinkConfig, PerModel, Position,
    CONTROLLER_MODULATION,
};
use wgtt::sim::SimTime;

fn main() {
    let dep = DeploymentConfig::default().build();
    let link = |a| scenario_link(1, &dep, &LinkConfig::default(), a, 0);
    let links: Vec<_> = (0..dep.aps.len()).map(link).collect();
    let per = PerModel::default();

    println!("Walking the near lane at 15 mph-equivalent Doppler; ESNR per AP (dB):\n");
    print!("   x   ");
    for a in 0..links.len() {
        print!("  AP{a} ");
    }
    println!("  best  capacity");
    let speed = 6.7;
    for step in 0..30 {
        let x = -4.0 + step as f64 * 2.0;
        let pos = Position::new(x, dep.lane_near_y, 1.5);
        let t = SimTime::from_millis(step * 300);
        let mut memos: Vec<EsnrMemo> = links.iter().map(|l| l.memo(t, &pos, speed)).collect();
        let esnr: Vec<f64> = memos
            .iter_mut()
            .map(|m| m.esnr_db(CONTROLLER_MODULATION))
            .collect();
        let (best, _) = esnr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("not NaN"))
            .expect("non-empty");
        let cap = per.capacity_with(&mut memos[best], GuardInterval::Short, 1500);
        print!("{:>6.1} ", x);
        for e in &esnr {
            print!("{:>5.1} ", e.max(-9.9));
        }
        println!("  AP{best}   {:>5.1} Mbit/s", cap / 1e6);
    }
    println!("\nCells are metres wide and overlap at mid-SNR — the vehicular picocell regime.");
}
