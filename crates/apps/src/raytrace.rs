//! Raytrace: a sphereflake renderer with distributed task queues.
//!
//! The scene — a recursive "balls" sphereflake, the shape of the paper's
//! `balls4.env` — lives in shared memory and is read-only (each node faults
//! it in once). The image plane is shared and written at pixel granularity,
//! which produces the fine-grained false sharing the paper highlights; work
//! is distributed as 8x8-pixel tile tasks in per-node queues with stealing
//! under per-queue locks (paper Section 4.1, with the task-queue
//! reorganization of the paper's reference \[16\] applied: tasks are plain indices, no extra
//! synchronization).
//!
//! The rendered image is independent of the stealing schedule, so the
//! checksum is deterministic across protocols and node counts.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, LockId, SvmConfig};

use crate::calibrate::RAYTRACE_SEQ_SECS;
use crate::{digest_u32, AppRun, Benchmark};

/// Tile edge in pixels (4x4 = 16-pixel tasks: fine-grained enough that
/// task stealing and image-plane false sharing matter, as in the paper).
const TILE: usize = 4;
/// Floats per sphere record: center xyz, radius, reflectivity, rgb.
const SPHERE_F: usize = 8;

/// Raytrace workload instance.
#[derive(Clone, Debug)]
pub struct Raytrace {
    /// Image edge in pixels (square image, multiple of the 4-pixel tile).
    pub dim: usize,
    /// Sphereflake recursion depth (4 = the paper's `balls4`).
    pub depth: usize,
    /// Checksum the image after the final barrier (tests only).
    pub verify: bool,
}

impl Raytrace {
    /// The paper's configuration: balls4 at 256x256.
    pub fn paper() -> Self {
        Raytrace {
            dim: 256,
            depth: 4,
            verify: false,
        }
    }

    /// Scaled instance: image edge scales; small scales drop one flake
    /// level to keep tests quick.
    pub fn scaled(scale: f64) -> Self {
        let dim = (((256.0 * scale) as usize).max(32)).next_multiple_of(TILE);
        let depth = if scale >= 0.5 { 4 } else { 3 };
        Raytrace {
            dim,
            depth,
            verify: false,
        }
    }

    /// Nanoseconds per ray-sphere intersection test, calibrated so the
    /// paper configuration hits its Table-1 sequential time. Measured once
    /// from a coarse probe render (cached).
    fn unit_ns() -> f64 {
        static UNIT: OnceLock<f64> = OnceLock::new();
        *UNIT.get_or_init(|| {
            // Probe: 64x64 over the balls4 scene; tests per pixel are
            // resolution-independent, so scale by the pixel ratio.
            let probe = Raytrace {
                dim: 64,
                depth: 4,
                verify: false,
            };
            let scene = probe.render_scene();
            let mut units = 0u64;
            let mut img = vec![0u32; probe.dim * probe.dim];
            probe.render_range(
                &scene,
                0..probe.dim * probe.dim / (TILE * TILE),
                &mut img,
                &mut units,
            );
            let per_pixel = units as f64 / (probe.dim * probe.dim) as f64;
            RAYTRACE_SEQ_SECS * 1e9 / (per_pixel * 256.0 * 256.0)
        })
    }

    /// Generate the sphereflake: one parent sphere with 9 children per
    /// level, scaled by 1/3, in preorder (a sphere, then its children's
    /// subtrees in turn).
    pub fn scene(&self) -> Vec<f64> {
        let mut spheres = Vec::new();
        flake(
            &mut spheres,
            [0.0, 0.0, 0.0],
            1.0,
            [0.0, 1.0, 0.0],
            self.depth,
            0.4,
        );
        let mut flat = Vec::with_capacity(spheres.len() * SPHERE_F);
        for s in spheres {
            flat.extend_from_slice(&s);
        }
        flat
    }

    fn render_scene(&self) -> Scene {
        Scene {
            spheres: self.scene(),
            depth: self.depth,
        }
    }

    fn tiles(&self) -> usize {
        (self.dim / TILE) * (self.dim / TILE)
    }

    /// Render the pixels of a set of tiles into `img`, counting
    /// intersection tests.
    fn render_range(
        &self,
        scene: &Scene,
        tiles: std::ops::Range<usize>,
        img: &mut [u32],
        units: &mut u64,
    ) {
        for t in tiles {
            for k in 0..TILE * TILE {
                let (px, py) = pixel_of(self.dim, t, k);
                img[py * self.dim + px] = render_pixel(scene, px, py, self.dim, units);
            }
        }
    }

    /// Sequential reference image.
    pub fn sequential(&self) -> Vec<u32> {
        let scene = self.render_scene();
        let mut img = vec![0u32; self.dim * self.dim];
        let mut units = 0;
        self.render_range(&scene, 0..self.tiles(), &mut img, &mut units);
        img
    }
}

/// Pixel `k` of tile `tile` in a `dim`x`dim` image.
fn pixel_of(dim: usize, tile: usize, k: usize) -> (usize, usize) {
    let per_row = dim / TILE;
    let (tx, ty) = (tile % per_row, tile / per_row);
    (tx * TILE + k % TILE, ty * TILE + k / TILE)
}

/// Emit a sphere and its ring of children.
fn flake(
    out: &mut Vec<[f64; SPHERE_F]>,
    center: [f64; 3],
    radius: f64,
    up: [f64; 3],
    depth: usize,
    reflect: f64,
) {
    let hue = (out.len() % 7) as f64 / 7.0;
    out.push([
        center[0],
        center[1],
        center[2],
        radius,
        reflect,
        0.4 + 0.6 * hue,
        0.8 - 0.5 * hue,
        0.5 + 0.3 * (1.0 - hue),
    ]);
    if depth == 0 {
        return;
    }
    // Nine children: six around the equator, three on top, all in the
    // frame defined by `up`.
    let (u, v) = basis(up);
    let child_r = radius / 3.0;
    for i in 0..9 {
        let (lat, lon): (f64, f64) = if i < 6 {
            (0.3, i as f64 * std::f64::consts::TAU / 6.0)
        } else {
            (1.0, (i - 6) as f64 * std::f64::consts::TAU / 3.0 + 0.5)
        };
        let dir = [
            (lat.cos() * lon.cos()) * u[0] + (lat.cos() * lon.sin()) * v[0] + lat.sin() * up[0],
            (lat.cos() * lon.cos()) * u[1] + (lat.cos() * lon.sin()) * v[1] + lat.sin() * up[1],
            (lat.cos() * lon.cos()) * u[2] + (lat.cos() * lon.sin()) * v[2] + lat.sin() * up[2],
        ];
        let d = norm(dir);
        let c = [
            center[0] + d[0] * (radius + child_r),
            center[1] + d[1] * (radius + child_r),
            center[2] + d[2] * (radius + child_r),
        ];
        flake(out, c, child_r, d, depth - 1, reflect * 0.8);
    }
}

fn basis(n: [f64; 3]) -> ([f64; 3], [f64; 3]) {
    let t = if n[0].abs() < 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    let u = norm(cross(t, n));
    let v = cross(n, u);
    (u, v)
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> [f64; 3] {
    let l = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
    [a[0] / l, a[1] / l, a[2] / l]
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// The sphereflake as the renderer reads it.
struct Scene {
    /// Sphere records, `SPHERE_F` floats each, in [`Raytrace::scene`]'s
    /// preorder.
    spheres: Vec<f64>,
    /// Levels of spheres below the root.
    depth: usize,
}

impl Scene {
    /// Test the subtree rooted at sphere `s`, which has `levels` levels
    /// below it, against the ray, in index order; returns the index after
    /// the subtree.
    ///
    /// A child's centre is `4r/3` from its parent's and its radius `r/3`,
    /// so a subtree with `L` levels lies within `(2 - 3^-L)·r` of its
    /// root's centre. When the ray's line misses the ball of radius `2r`
    /// about that centre, no sphere of the subtree can be hit and the
    /// whole subtree is skipped. The margin, `3^-L·r`, is at least 1.2 %
    /// of `r` for `L <= 4`, far above rounding; a sphere that is tested
    /// is tested exactly as the all-spheres loop tests it.
    fn visit(
        &self,
        s: usize,
        levels: usize,
        orig: [f64; 3],
        dir: [f64; 3],
        best: &mut Option<(f64, usize)>,
    ) -> usize {
        let o = &self.spheres[s * SPHERE_F..(s + 1) * SPHERE_F];
        let oc = [orig[0] - o[0], orig[1] - o[1], orig[2] - o[2]];
        let b = dot(oc, dir);
        let oc2 = dot(oc, oc);
        if levels > 0 && b * b - (oc2 - 4.0 * o[3] * o[3]) <= 0.0 {
            return s + (9usize.pow(levels as u32 + 1) - 1) / 8;
        }
        let c = oc2 - o[3] * o[3];
        let disc = b * b - c;
        if disc > 0.0 {
            let t = -b - disc.sqrt();
            if t > 1e-6 && best.is_none_or(|(bt, _)| t < bt) {
                *best = Some((t, s));
            }
        }
        let mut next = s + 1;
        if levels > 0 {
            for _ in 0..9 {
                next = self.visit(next, levels - 1, orig, dir, best);
            }
        }
        next
    }
}

/// Nearest intersection of a ray with the scene. Counts a test against
/// every sphere, as the algorithm without a hierarchy does: the charged
/// work does not depend on how many spheres [`Scene::visit`] skips.
fn intersect(
    scene: &Scene,
    orig: [f64; 3],
    dir: [f64; 3],
    units: &mut u64,
) -> Option<(f64, usize)> {
    *units += (scene.spheres.len() / SPHERE_F) as u64;
    let mut best = None;
    scene.visit(0, scene.depth, orig, dir, &mut best);
    best
}

/// Shade a ray (diffuse + shadow + one reflection bounce).
fn shade(scene: &Scene, orig: [f64; 3], dir: [f64; 3], depth: usize, units: &mut u64) -> [f64; 3] {
    let Some((t, s)) = intersect(scene, orig, dir, units) else {
        // Sky gradient.
        let k = 0.5 * (dir[1] + 1.0);
        return [0.1 + 0.2 * k, 0.15 + 0.25 * k, 0.3 + 0.4 * k];
    };
    let o = &scene.spheres[s * SPHERE_F..(s + 1) * SPHERE_F];
    let hit = [
        orig[0] + t * dir[0],
        orig[1] + t * dir[1],
        orig[2] + t * dir[2],
    ];
    let n = norm([hit[0] - o[0], hit[1] - o[1], hit[2] - o[2]]);
    let light = norm([2.0 - hit[0], 3.5 - hit[1], -2.0 - hit[2]]);
    let shadow_orig = [
        hit[0] + 1e-4 * n[0],
        hit[1] + 1e-4 * n[1],
        hit[2] + 1e-4 * n[2],
    ];
    let lit = intersect(scene, shadow_orig, light, units).is_none();
    let diffuse = if lit { dot(n, light).max(0.0) } else { 0.0 };
    let base = [o[5], o[6], o[7]];
    let mut col = [
        base[0] * (0.15 + 0.85 * diffuse),
        base[1] * (0.15 + 0.85 * diffuse),
        base[2] * (0.15 + 0.85 * diffuse),
    ];
    if depth > 0 && o[4] > 0.0 {
        let d = dot(dir, n);
        let refl = norm([
            dir[0] - 2.0 * d * n[0],
            dir[1] - 2.0 * d * n[1],
            dir[2] - 2.0 * d * n[2],
        ]);
        let rc = shade(scene, shadow_orig, refl, depth - 1, units);
        for k in 0..3 {
            col[k] = col[k] * (1.0 - o[4]) + rc[k] * o[4];
        }
    }
    col
}

/// Trace one pixel to a packed RGB value.
fn render_pixel(scene: &Scene, px: usize, py: usize, dim: usize, units: &mut u64) -> u32 {
    let x = (px as f64 + 0.5) / dim as f64 * 2.0 - 1.0;
    let y = 1.0 - (py as f64 + 0.5) / dim as f64 * 2.0;
    let orig = [0.0, 0.8, -4.0];
    let dir = norm([x * 1.2, y * 1.2 - 0.2, 2.0]);
    let c = shade(scene, orig, dir, 2, units);
    let q = |v: f64| (v.clamp(0.0, 1.0) * 255.0) as u32;
    q(c[0]) << 16 | q(c[1]) << 8 | q(c[2])
}

#[derive(Clone, Copy)]
struct Layout {
    scene: SharedArr<f64>,
    image: SharedArr<u32>,
    queues: SharedArr<u32>,
    counts: SharedArr<u32>,
    qcap: usize,
    /// Queue counters are padded to a page each (Splash-2 padding): a pop
    /// of the local queue touches only locally-homed pages.
    count_stride: usize,
}

impl Benchmark for Raytrace {
    fn name(&self) -> &'static str {
        "Raytrace"
    }

    fn seq_secs(&self) -> f64 {
        // Per-pixel cost is resolution-independent; scale from the paper's
        // 256x256.
        RAYTRACE_SEQ_SECS * (self.dim * self.dim) as f64 / (256.0 * 256.0)
            * if self.depth == 4 { 1.0 } else { 0.12 }
    }

    fn size_label(&self) -> String {
        format!(
            "sphereflake-{} ({} spheres), {}x{}",
            self.depth,
            (0..=self.depth)
                .map(|d| 9usize.pow(d as u32))
                .sum::<usize>(),
            self.dim,
            self.dim
        )
    }

    fn expected_checksum(&self) -> u64 {
        digest_u32(&self.sequential())
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let (dim, depth) = (me.dim, me.depth);
        let tiles = me.tiles();
        let unit_ns = Self::unit_ns();
        let verify = me.verify;
        let scene_data = me.scene();
        let scene_len = scene_data.len();
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);

        let setup = {
            let scene_data = scene_data.clone();
            move |s: &mut svm_core::Setup| {
                let scene = s.alloc_array_pages::<f64>(scene_len, "scene");
                s.init_from(&scene, &scene_data);
                let image = s.alloc_array_pages::<u32>(dim * dim, "image");
                let qcap = tiles.next_multiple_of(s.page_size() / 4);
                let count_stride = s.page_size() / 4;
                let queues = s.alloc_array_pages::<u32>(s.nodes() * qcap, "task-queues");
                let counts = s.alloc_array_pages::<u32>(s.nodes() * count_stride, "queue-counts");
                // Tiles dealt in contiguous image blocks (the Splash
                // distribution): scene complexity varies across the image,
                // so nodes with cheap regions finish early and steal —
                // the paper's "interesting communication". Queues and their
                // (page-padded) counters are homed at their owners; image
                // rows at the node whose initial tiles cover them.
                let mut dealt = vec![0u32; s.nodes()];
                for t in 0..tiles {
                    let q = crate::util::chunk_owner(tiles, s.nodes(), t);
                    s.init(&queues, q * qcap + dealt[q] as usize, t as u32);
                    dealt[q] += 1;
                }
                for (q, &cnt) in dealt.iter().enumerate() {
                    s.init(&counts, q * count_stride, cnt);
                    s.assign_home(&queues, q * qcap..(q + 1) * qcap, q);
                    s.assign_home(&counts, q * count_stride..(q + 1) * count_stride, q);
                }
                let per_row = dim / TILE;
                for ty in 0..per_row {
                    let owner = crate::util::chunk_owner(tiles, s.nodes(), ty * per_row);
                    s.assign_home(&image, ty * TILE * dim..(ty + 1) * TILE * dim, owner);
                }
                Layout {
                    scene,
                    image,
                    queues,
                    counts,
                    qcap,
                    count_stride,
                }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let p = ctx.nodes();
            let me_id = ctx.node();
            // Fault in the read-only scene once (the paper's cold scene
            // distribution), then intersect against the private copy.
            let mut spheres = vec![0.0f64; scene_len];
            l.scene.read_into(ctx, 0, &mut spheres);
            let scene = Scene { spheres, depth };

            let qlock = |q: usize| LockId(2_000_000 + q as u32);
            let pop = |ctx: &svm_core::SvmCtx<'_>, q: usize| -> Option<u32> {
                ctx.lock(qlock(q));
                let cnt = l.counts.get(ctx, q * l.count_stride) as usize;
                let task = if cnt > 0 {
                    let t = l.queues.get(ctx, q * l.qcap + cnt - 1);
                    l.counts.set(ctx, q * l.count_stride, cnt as u32 - 1);
                    Some(t)
                } else {
                    None
                };
                ctx.unlock(qlock(q));
                task
            };

            let mut img_tile = [0u32; TILE * TILE];
            'work: loop {
                // Own queue first, then steal round-robin.
                let mut task = None;
                for k in 0..p {
                    let q = (me_id + k) % p;
                    task = pop(ctx, q);
                    if task.is_some() {
                        break;
                    }
                }
                let Some(t) = task else { break 'work };
                let t = t as usize;
                let mut units = 0u64;
                for (k, out) in img_tile.iter_mut().enumerate() {
                    let (px, py) = pixel_of(dim, t, k);
                    *out = render_pixel(&scene, px, py, dim, &mut units);
                }
                ctx.compute_ns((units as f64 * unit_ns) as u64);
                // Write the tile's pixels (row fragments: false sharing).
                for row in 0..TILE {
                    let (px, py) = pixel_of(dim, t, row * TILE);
                    l.image
                        .write_from(ctx, py * dim + px, &img_tile[row * TILE..(row + 1) * TILE]);
                }
            }
            ctx.barrier(BarrierId(0));
            if verify && ctx.node() == 0 {
                let mut img = vec![0u32; dim * dim];
                l.image.read_into(ctx, 0, &mut img);
                out_w.set(digest_u32(&img));
            }
        };

        let report = run(cfg, setup, body);
        let checksum = out.get();
        AppRun { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_testkit::check;

    #[test]
    fn sphereflake_counts() {
        let r = Raytrace {
            dim: 32,
            depth: 2,
            verify: false,
        };
        assert_eq!(r.scene().len() / SPHERE_F, 1 + 9 + 81);
        let r4 = Raytrace {
            dim: 32,
            depth: 4,
            verify: false,
        };
        assert_eq!(r4.scene().len() / SPHERE_F, 7381, "balls4 has 7381 spheres");
    }

    #[test]
    fn image_is_not_trivial() {
        let r = Raytrace {
            dim: 32,
            depth: 1,
            verify: false,
        };
        let img = r.sequential();
        let distinct: std::collections::HashSet<u32> = img.iter().copied().collect();
        assert!(
            distinct.len() > 10,
            "expected a real image, got {} colors",
            distinct.len()
        );
        // Center pixels hit the root sphere; corners are sky.
        assert_ne!(img[16 * 32 + 16], img[0]);
    }

    #[test]
    fn pixel_tiling_roundtrip() {
        let r = Raytrace {
            dim: 64,
            depth: 0,
            verify: false,
        };
        let mut seen = vec![false; 64 * 64];
        for t in 0..r.tiles() {
            for k in 0..TILE * TILE {
                let (x, y) = pixel_of(r.dim, t, k);
                assert!(!seen[y * 64 + x]);
                seen[y * 64 + x] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ray_sphere_intersection_basics() {
        // Unit sphere at origin, ray from -z.
        let scene = Scene {
            spheres: vec![0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
            depth: 0,
        };
        let mut units = 0;
        let hit = intersect(&scene, [0.0, 0.0, -5.0], [0.0, 0.0, 1.0], &mut units);
        assert!(hit.is_some());
        let (t, s) = hit.unwrap();
        assert_eq!(s, 0);
        assert!((t - 4.0).abs() < 1e-9);
        assert_eq!(units, 1);
        // Miss.
        let miss = intersect(&scene, [0.0, 3.0, -5.0], [0.0, 0.0, 1.0], &mut units);
        assert!(miss.is_none());
    }

    /// `intersect` as it was before the subtree skip: every sphere tested,
    /// in index order. Kept as the oracle.
    fn intersect_all(
        scene: &[f64],
        orig: [f64; 3],
        dir: [f64; 3],
        units: &mut u64,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        let n = scene.len() / SPHERE_F;
        *units += n as u64;
        for s in 0..n {
            let o = &scene[s * SPHERE_F..(s + 1) * SPHERE_F];
            let oc = [orig[0] - o[0], orig[1] - o[1], orig[2] - o[2]];
            let b = dot(oc, dir);
            let c = dot(oc, oc) - o[3] * o[3];
            let disc = b * b - c;
            if disc <= 0.0 {
                continue;
            }
            let t = -b - disc.sqrt();
            if t > 1e-6 && best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, s));
            }
        }
        best
    }

    /// Every sphere's index and the number of levels below it, in preorder.
    fn levels(depth: usize, out: &mut Vec<(usize, usize)>) {
        out.push((out.len(), depth));
        if depth > 0 {
            for _ in 0..9 {
                levels(depth - 1, out);
            }
        }
    }

    #[derive(Debug)]
    enum Ray {
        /// From anywhere near the flake, in any direction.
        Random,
        /// From inside the `2r` ball of a sphere with levels below it.
        InsideBall,
        /// Tangent to the `2r` ball of a sphere with levels below it.
        TangentToBall,
        /// A shadow ray: from just off a sphere's surface.
        Shadow,
        /// Through the centre of the sphere farthest out in a subtree,
        /// square to its offset from the subtree's root: the line passes
        /// as far from that root as any hit in the subtree can be.
        Grazing,
    }

    #[test]
    fn skipping_subtrees_finds_what_testing_every_sphere_finds() {
        let scenes: Vec<Scene> = (0..=4)
            .map(|depth| {
                Raytrace {
                    dim: 32,
                    depth,
                    verify: false,
                }
                .render_scene()
            })
            .collect();
        check(
            "raytrace::culled_intersect",
            |src| {
                let depth = src.usize_in(0..5);
                // A level first, then spheres on it, so that the few
                // spheres with many levels below them are drawn often
                // (leaves only in a flake of depth 0).
                let level = src.usize_in(depth.min(1)..depth + 1);
                (depth, level, src.below(u64::MAX))
            },
            |&(depth, level, seed)| {
                let scene = &scenes[depth];
                let sph = |s: usize| &scene.spheres[s * SPHERE_F..(s + 1) * SPHERE_F];
                let centre = |s: usize| [sph(s)[0], sph(s)[1], sph(s)[2]];
                let mut g = svm_sim::SplitMix64::new(seed);
                let unit = |g: &mut svm_sim::SplitMix64| loop {
                    let v = [
                        2.0 * g.next_f64() - 1.0,
                        2.0 * g.next_f64() - 1.0,
                        2.0 * g.next_f64() - 1.0,
                    ];
                    if (0.01..=1.0).contains(&dot(v, v)) {
                        break norm(v);
                    }
                };
                let add = |a: [f64; 3], k: f64, d: [f64; 3]| {
                    [a[0] + k * d[0], a[1] + k * d[1], a[2] + k * d[2]]
                };
                let mut all = Vec::new();
                levels(depth, &mut all);
                let on_level: Vec<usize> = all
                    .iter()
                    .filter(|&&(_, l)| l == level)
                    .map(|&(s, _)| s)
                    .collect();
                let pick = |x: u64| on_level[(x % on_level.len() as u64) as usize];
                let kinds = [
                    Ray::Random,
                    Ray::InsideBall,
                    Ray::TangentToBall,
                    Ray::Shadow,
                    Ray::Grazing,
                ];
                for kind in kinds {
                    let (orig, dir) = match kind {
                        Ray::Random => (add([0.0; 3], 4.0, unit(&mut g)), unit(&mut g)),
                        Ray::InsideBall => {
                            let s = pick(g.next_u64());
                            let k = 2.0 * sph(s)[3] * g.next_f64();
                            (add(centre(s), k, unit(&mut g)), unit(&mut g))
                        }
                        Ray::TangentToBall => {
                            let s = pick(g.next_u64());
                            let d = unit(&mut g);
                            let (u, v) = basis(d);
                            let a = std::f64::consts::TAU * g.next_f64();
                            let p = add(add([0.0; 3], a.cos(), u), a.sin(), v);
                            let touch = add(centre(s), 2.0 * sph(s)[3], p);
                            (add(touch, -4.0 * g.next_f64(), d), d)
                        }
                        Ray::Shadow => {
                            let s = (g.next_u64() % all.len() as u64) as usize;
                            let n = unit(&mut g);
                            let hit = add(centre(s), sph(s)[3], n);
                            (add(hit, 1e-4, n), unit(&mut g))
                        }
                        Ray::Grazing => {
                            let root = pick(g.next_u64());
                            let len = (9usize.pow(all[root].1 as u32 + 1) - 1) / 8;
                            let reach = |s: usize| {
                                let d = add(centre(s), -1.0, centre(root));
                                dot(d, d).sqrt() + sph(s)[3]
                            };
                            let far = (root..root + len)
                                .max_by(|&a, &b| reach(a).total_cmp(&reach(b)))
                                .unwrap();
                            let out = add(centre(far), -1.0, centre(root));
                            let d = if dot(out, out) > 0.0 {
                                norm(out)
                            } else {
                                unit(&mut g)
                            };
                            let (u, v) = basis(d);
                            let a = std::f64::consts::TAU * g.next_f64();
                            let dir = add(add([0.0; 3], a.cos(), u), a.sin(), v);
                            (add(centre(far), -4.0, dir), dir)
                        }
                    };
                    let (mut got_units, mut want_units) = (0, 0);
                    let got = intersect(scene, orig, dir, &mut got_units);
                    let want = intersect_all(&scene.spheres, orig, dir, &mut want_units);
                    let bits = |h: Option<(f64, usize)>| h.map(|(t, s)| (t.to_bits(), s));
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{kind:?}: orig {orig:?}, dir {dir:?}"
                    );
                    assert_eq!(got_units, want_units);
                }
            },
        );
    }
}
