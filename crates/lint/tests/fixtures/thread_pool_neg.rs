// Negative fixture: parallel work through the shared, index-ordered pool.
use ssplane_astro::par::par_map;

pub fn squares(items: Vec<u64>, threads: usize) -> Vec<u64> {
    par_map(items, threads, |x| x * x)
}
