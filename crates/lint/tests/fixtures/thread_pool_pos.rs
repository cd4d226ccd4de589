// Positive fixture: a hand-rolled pool next to the shared par_map.
pub fn squares(items: &[u64]) -> Vec<u64> {
    let n = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut out = vec![0; items.len()];
    std::thread::scope(|scope| {
        for (chunk, src) in out.chunks_mut(n).zip(items.chunks(n)) {
            scope.spawn(move || {
                for (o, x) in chunk.iter_mut().zip(src) {
                    *o = x * x;
                }
            });
        }
    });
    out
}

pub fn detached() {
    std::thread::spawn(|| ()).join().unwrap();
}
