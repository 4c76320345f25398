//! Golden-sequence determinism tests: a fixed seed must produce exactly
//! these draws, forever. The u64 vectors were generated by an independent
//! Python implementation of splitmix64 + xoshiro256++ (and the seed-0
//! sequence matches the published `rand_xoshiro` reference vector), so a
//! failure here means the generator's stream changed — which silently
//! invalidates every seeded experiment in the repo.

use tyxe_rand::rngs::StdRng;
use tyxe_rand::{fill, RngCore, SeedableRng};

#[test]
fn golden_u64_seed_0() {
    let mut rng = StdRng::seed_from_u64(0);
    let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            0x53175D61490B23DF,
            0x61DA6F3DC380D507,
            0x5C0FDF91EC9A7BFC,
            0x02EEBF8C3BBE5E1A,
            0x7ECA04EBAF4A5EEA,
            0x0543C37757F08D9A,
            0xDB7490C75AB5026E,
            0xD87343E6464BC959,
        ]
    );
}

#[test]
fn golden_u64_seed_42() {
    let mut rng = StdRng::seed_from_u64(42);
    let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            0xD0764D4F4476689F,
            0x519E4174576F3791,
            0xFBE07CFB0C24ED8C,
            0xB37D9F600CD835B8,
            0xCB231C3874846A73,
            0x968D9F004E50DE7D,
            0x201718FF221A3556,
            0x9AE94E070ED8CB46,
        ]
    );
}

#[test]
fn golden_unit_f64_seed_42() {
    let mut rng = StdRng::seed_from_u64(42);
    let got: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
    let want = [
        0.8143051451229099,
        0.3188210400616611,
        0.9838941681774888,
        0.7011355981347556,
    ];
    assert_eq!(got, want);
}

#[test]
fn golden_uniform_fill_seed_42() {
    // fill_uniform over [0, 1) must be exactly the affine image of the
    // unit draws (the gen_range fast path), bit for bit.
    let mut rng = StdRng::seed_from_u64(42);
    let mut buf = [0.0; 4];
    fill::fill_uniform(&mut buf, 0.0, 1.0, &mut rng);
    let mut rng2 = StdRng::seed_from_u64(42);
    let direct: Vec<f64> = (0..4).map(|_| rng2.next_f64()).collect();
    assert_eq!(&buf[..], &direct[..]);
}

#[test]
fn golden_normal_fill_seed_42() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut buf = [0.0; 4];
    fill::fill_standard_normal(&mut buf, &mut rng);
    let want: [f64; 4] = [
        -0.26860736946209507,
        0.581971051862883,
        -0.054462170108151145,
        -0.17177820812195804,
    ];
    assert_eq!(buf.map(f64::to_bits), want.map(f64::to_bits));
}

#[test]
fn golden_normal_fill_seed_1_odd_length() {
    // Nine pairs, the last cut to its cosine. Pair 4 has u1 = 0.9869, in
    // `ln`'s near-1 branch (u1 >= 1 - 2^-4); the angles reach all three
    // `sin`/`cos` ranges: 0.844 (pair 5, below 0.855), 2.158 (pair 6, below
    // 2.426) and 3.289 (pair 4, reduced by multiples of pi/2).
    let mut rng = StdRng::seed_from_u64(1);
    let mut buf = [0.0; 17];
    fill::fill_standard_normal(&mut buf, &mut rng);
    let want: [u64; 17] = [
        0xbf88_1214_0a29_bbcd, // -0.011753231582785429
        0xbfe4_ac1a_702e_eceb, // -0.6460087004737977
        0xbfaa_1b24_5424_3d07, // -0.05098832633131605
        0xc001_2842_0b14_1059, // -2.1446572175500873
        0xbff8_c857_d73b_c811, // -1.548911896472877
        0xbfef_aa24_b748_2030, // -0.9895194606515414
        0xbfc4_9534_0fb7_14d5, // -0.16080332534162403
        0xbf98_6750_6806_c599, // -0.023831611966391362
        0x3ff6_fdbe_8011_7136, // 1.4369492533360932
        0x3ff9_d8a5_8ac3_86fc, // 1.6153922481975647
        0xbfcc_e673_da03_0621, // -0.2257828535567095
        0x3fd5_b313_79f5_dbac, // 0.339054936506211
        0xbffc_e8aa_1d45_2b96, // -1.8068028586737674
        0x3ff6_8bd9_e4f0_7247, // 1.4091433470668038
        0x3ff3_831e_c066_8316, // 1.2195117488519762
        0x3ffd_3d97_e774_f80b, // 1.827537445190958
        0xbff1_0e43_25ae_e6fd, // -1.0659820053101037
    ];
    assert_eq!(buf.map(f64::to_bits), want);
}

#[test]
fn distinct_seeds_distinct_streams() {
    let mut a = StdRng::seed_from_u64(1);
    let mut b = StdRng::seed_from_u64(2);
    let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
    let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
    assert_ne!(va, vb);
}
