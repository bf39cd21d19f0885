//! Pins the optimizer's whole output, not just the lines a golden test
//! CHECKs.
//!
//! Every input below is compiled under five optimizer configurations on
//! both targets at `--jobs 1`. The printed module, the `OptStats` block,
//! the `--explain-spec` table and the `--emit hssa` dump of the refined
//! input are folded into one FNV-1a digest per run, and the machine code
//! the optimized module lowers to on that run's target (what `specc
//! --emit mach` prints) into a second, `mach` row. The golden suite
//! FileChecks small cases and `tests/mega_determinism.rs` compares job
//! counts with each other, so a change that moves output the same way at
//! every job count, outside the lines a golden pins, passes both; it
//! cannot pass this table. A performance change to the optimizer must
//! leave the table as it is. A change that means to move output records
//! the new table (the failure message prints it in the form below) and
//! says why it moved.

use specframe::ir::display::print_module;
use specframe::machine::render_mprogram;
use specframe::prelude::*;

/// `(name, data speculation, control speculation, store sinking,
/// strength reduction)`.
const CONFIGS: [(&str, SpecKind, ControlKind, bool, bool); 5] = [
    ("none/off", SpecKind::None, ControlKind::Off, false, true),
    (
        "heuristic/static",
        SpecKind::Heuristic,
        ControlKind::Static,
        false,
        true,
    ),
    (
        "aggressive/off",
        SpecKind::Aggressive,
        ControlKind::Off,
        false,
        true,
    ),
    (
        "profile/profile+sink",
        SpecKind::Profile,
        ControlKind::Profile,
        true,
        true,
    ),
    (
        "profile/static-sr",
        SpecKind::Profile,
        ControlKind::Static,
        false,
        false,
    ),
];

/// Two lines per input × config × target: `input config target digest`
/// for the optimizer's output, then `input config target mach digest` for
/// its lowering.
const EXPECTED: &str = "\
ammp none/off epic b9e648df5a2a1797
ammp none/off epic mach ceebf0ec391b0713
ammp none/off swr 910db6821c774dba
ammp none/off swr mach ceebf0ec391b0713
ammp heuristic/static epic 6f29088ddce646fb
ammp heuristic/static epic mach 7fbbcecd38a34b45
ammp heuristic/static swr 7eb5a8f877717868
ammp heuristic/static swr mach 6a6e71562d7c9950
ammp aggressive/off epic 8fba34018b2491bf
ammp aggressive/off epic mach 075420d7cc1eef58
ammp aggressive/off swr e0d77154a693cdb6
ammp aggressive/off swr mach 9b2c223811742cfb
ammp profile/profile+sink epic 96fbf013fa176cba
ammp profile/profile+sink epic mach 7fbbcecd38a34b45
ammp profile/profile+sink swr 0432f4f46e66816b
ammp profile/profile+sink swr mach 6a6e71562d7c9950
ammp profile/static-sr epic 05e85140c21883b6
ammp profile/static-sr epic mach bfeb4ad80208c7c6
ammp profile/static-sr swr cc3000d76504c267
ammp profile/static-sr swr mach 0efc772e08f9bde5
art none/off epic 05058b14e30501e1
art none/off epic mach bda236bb4447f71f
art none/off swr d4660cc6c0f6f0da
art none/off swr mach bda236bb4447f71f
art heuristic/static epic 3da9940720b8b070
art heuristic/static epic mach b1cc1b40139edf38
art heuristic/static swr d6704df99e31730d
art heuristic/static swr mach 81ead93405dda7c2
art aggressive/off epic 8188504240c5f2bb
art aggressive/off epic mach 6c88f93410272dcc
art aggressive/off swr 30feab310c0b3af8
art aggressive/off swr mach 5cca9d0d1d3ed463
art profile/profile+sink epic 8c99b3aad58fb5b1
art profile/profile+sink epic mach b1cc1b40139edf38
art profile/profile+sink swr 336102538059ba2a
art profile/profile+sink swr mach 81ead93405dda7c2
art profile/static-sr epic 8c99b3aad58fb5b1
art profile/static-sr epic mach b1cc1b40139edf38
art profile/static-sr swr 336102538059ba2a
art profile/static-sr swr mach 81ead93405dda7c2
equake_smvp none/off epic e0847bf1a8009ae7
equake_smvp none/off epic mach 29ca6348cff9a9da
equake_smvp none/off swr 1341f7bd6f8b0a7c
equake_smvp none/off swr mach 29ca6348cff9a9da
equake_smvp heuristic/static epic abc9efd2a17f87f0
equake_smvp heuristic/static epic mach ed6ee1dea51110ba
equake_smvp heuristic/static swr 3c14b9f083195a75
equake_smvp heuristic/static swr mach 115afd2f37dedf0c
equake_smvp aggressive/off epic 0ac9e222f367996e
equake_smvp aggressive/off epic mach 3ed77cb758a998b2
equake_smvp aggressive/off swr 469f3e461c67a7fb
equake_smvp aggressive/off swr mach f4b6c398431644c1
equake_smvp profile/profile+sink epic 4a9dc3452af75813
equake_smvp profile/profile+sink epic mach ed6ee1dea51110ba
equake_smvp profile/profile+sink swr 2b80f5e943769290
equake_smvp profile/profile+sink swr mach 115afd2f37dedf0c
equake_smvp profile/static-sr epic f44a265c4e17bc64
equake_smvp profile/static-sr epic mach 1f80c728ecf42d30
equake_smvp profile/static-sr swr cbc1f9a811770673
equake_smvp profile/static-sr swr mach 4c6966f3f0578cb9
gzip none/off epic 273451555cb226f5
gzip none/off epic mach 43380c753c1964ec
gzip none/off swr 2ee951a77ac5894e
gzip none/off swr mach 43380c753c1964ec
gzip heuristic/static epic 8ae83d3e0a2c5c30
gzip heuristic/static epic mach ba94eaa0f9a09bbc
gzip heuristic/static swr ecbdeb135d736d3b
gzip heuristic/static swr mach ba94eaa0f9a09bbc
gzip aggressive/off epic f7bf684505ad04a3
gzip aggressive/off epic mach 43380c753c1964ec
gzip aggressive/off swr 0a266b6788fb36b0
gzip aggressive/off swr mach 43380c753c1964ec
gzip profile/profile+sink epic 726adcd689fbeadd
gzip profile/profile+sink epic mach c926cc6169022fd5
gzip profile/profile+sink swr 6965253f65857b2b
gzip profile/profile+sink swr mach ba94eaa0f9a09bbc
gzip profile/static-sr epic 14bc348404967632
gzip profile/static-sr epic mach 0e41128c47b35abc
gzip profile/static-sr swr d35101c39946956c
gzip profile/static-sr swr mach 9ae6f0b729845e8d
many_funcs none/off epic ba8f772d6570e6e7
many_funcs none/off epic mach 95947e27d4838dac
many_funcs none/off swr f57220d00325dd00
many_funcs none/off swr mach 95947e27d4838dac
many_funcs heuristic/static epic d5c46c787eab1432
many_funcs heuristic/static epic mach 83aea803110ef8a7
many_funcs heuristic/static swr cf2ca85b484706e2
many_funcs heuristic/static swr mach 95947e27d4838dac
many_funcs aggressive/off epic a0cf7cd2c40cef93
many_funcs aggressive/off epic mach 95947e27d4838dac
many_funcs aggressive/off swr 211b1ad99c9d5874
many_funcs aggressive/off swr mach 95947e27d4838dac
many_funcs profile/profile+sink epic add28031fc2fc5cd
many_funcs profile/profile+sink epic mach 83aea803110ef8a7
many_funcs profile/profile+sink swr 80f540c59cbad059
many_funcs profile/profile+sink swr mach 95947e27d4838dac
many_funcs profile/static-sr epic add28031fc2fc5cd
many_funcs profile/static-sr epic mach 83aea803110ef8a7
many_funcs profile/static-sr swr 80f540c59cbad059
many_funcs profile/static-sr swr mach 95947e27d4838dac
mcf none/off epic d674364bce205476
mcf none/off epic mach e49a8ad7cd543348
mcf none/off swr 3010c3952db11591
mcf none/off swr mach e49a8ad7cd543348
mcf heuristic/static epic 519a3b7e69d01c78
mcf heuristic/static epic mach c5ea71ae34e37515
mcf heuristic/static swr 9e2605cfcccdd83f
mcf heuristic/static swr mach e49a8ad7cd543348
mcf aggressive/off epic d6891948112425c7
mcf aggressive/off epic mach e34f36c25941df55
mcf aggressive/off swr 4d397a5ddb3acf9c
mcf aggressive/off swr mach e49a8ad7cd543348
mcf profile/profile+sink epic c4dc2e2b681cea23
mcf profile/profile+sink epic mach c5ea71ae34e37515
mcf profile/profile+sink swr 90b0ee4174c73314
mcf profile/profile+sink swr mach e49a8ad7cd543348
mcf profile/static-sr epic 14de7979fc65cbd7
mcf profile/static-sr epic mach 00ea4d3d3282a987
mcf profile/static-sr swr 2aa665e8b9a013f8
mcf profile/static-sr swr mach 3551cb4375019ee2
parser none/off epic 65313c6d966ca8e6
parser none/off epic mach 01e74e51baf7b0be
parser none/off swr 74aff925fc604dab
parser none/off swr mach 01e74e51baf7b0be
parser heuristic/static epic 6f1a943273cea910
parser heuristic/static epic mach ccfb6547a2dba05a
parser heuristic/static swr 85b802cd4b2c254d
parser heuristic/static swr mach f84d81b83fc555b5
parser aggressive/off epic e0d9d3774084bdf9
parser aggressive/off epic mach db597f3b342cbea5
parser aggressive/off swr a40bc21aaf224b07
parser aggressive/off swr mach 01e74e51baf7b0be
parser profile/profile+sink epic d7a6a3ed004010c9
parser profile/profile+sink epic mach ccfb6547a2dba05a
parser profile/profile+sink swr 7eb67e08d2a624fe
parser profile/profile+sink swr mach f84d81b83fc555b5
parser profile/static-sr epic 670202bf54fab320
parser profile/static-sr epic mach b9066741ad169dce
parser profile/static-sr swr 847c9e6df86eafdb
parser profile/static-sr swr mach 22c7ac793238d9e1
twolf none/off epic bf9ba8e606607341
twolf none/off epic mach c8f6bcd853b90e9d
twolf none/off swr 436059a77bf72ce0
twolf none/off swr mach c8f6bcd853b90e9d
twolf heuristic/static epic 213959c56d63d1cd
twolf heuristic/static epic mach 0fc9f6bed7ecd1b2
twolf heuristic/static swr bb835f3d2cd6be31
twolf heuristic/static swr mach ddc0e32a03e662f8
twolf aggressive/off epic 30d7e584247c1206
twolf aggressive/off epic mach 899567102b7e9f23
twolf aggressive/off swr e64786117287b3f4
twolf aggressive/off swr mach c8f6bcd853b90e9d
twolf profile/profile+sink epic 19c12a6ac092204a
twolf profile/profile+sink epic mach 0fc9f6bed7ecd1b2
twolf profile/profile+sink swr 10ec8cd03a5796fa
twolf profile/profile+sink swr mach ddc0e32a03e662f8
twolf profile/static-sr epic 9c2d8728fdf2afe7
twolf profile/static-sr epic mach 33fbff98a1130818
twolf profile/static-sr swr 1589989f3ba8a471
twolf profile/static-sr swr mach 4deadfba61c2f6db
vpr none/off epic ebe2a3533fdd1bd8
vpr none/off epic mach b877653a4871a9b0
vpr none/off swr 63bc242614ac8327
vpr none/off swr mach b877653a4871a9b0
vpr heuristic/static epic 3a98472f9a851d0d
vpr heuristic/static epic mach 58fbbe586f856e11
vpr heuristic/static swr 09094622005c8efd
vpr heuristic/static swr mach 244bfa4de29b4e2a
vpr aggressive/off epic b320aa9a7e774f8e
vpr aggressive/off epic mach 2eed334eaeae8afa
vpr aggressive/off swr 41428d4072b7deb6
vpr aggressive/off swr mach b877653a4871a9b0
vpr profile/profile+sink epic f0b8a56d0bbf926c
vpr profile/profile+sink epic mach 58fbbe586f856e11
vpr profile/profile+sink swr c4f954d1edf684a0
vpr profile/profile+sink swr mach 244bfa4de29b4e2a
vpr profile/static-sr epic b7cdf1cf6a78fdd0
vpr profile/static-sr epic mach 8139a1dcab8d2e3b
vpr profile/static-sr swr 8133fa0f29d5432c
vpr profile/static-sr swr mach 5690b1899641a3ce
mega:7:150 none/off epic b4f1cd778ad7bf27
mega:7:150 none/off epic mach 2116d2de255cc2f3
mega:7:150 none/off swr a7a68efefd31ecb4
mega:7:150 none/off swr mach 2116d2de255cc2f3
mega:7:150 heuristic/static epic f695355cb059bcb3
mega:7:150 heuristic/static epic mach c64071c02c366c09
mega:7:150 heuristic/static swr bb61767c566ff6b8
mega:7:150 heuristic/static swr mach 1192c475b38ffed2
mega:7:150 aggressive/off epic 351156afe6bfaa09
mega:7:150 aggressive/off epic mach 2116d2de255cc2f3
mega:7:150 aggressive/off swr 05aa8858404ffb66
mega:7:150 aggressive/off swr mach 2116d2de255cc2f3
mega:7:150 profile/profile+sink epic 7868b8e289cda5a8
mega:7:150 profile/profile+sink epic mach 2116d2de255cc2f3
mega:7:150 profile/profile+sink swr 950a159563d98fdf
mega:7:150 profile/profile+sink swr mach 2116d2de255cc2f3
mega:7:150 profile/static-sr epic fba07352854faab4
mega:7:150 profile/static-sr epic mach c64071c02c366c09
mega:7:150 profile/static-sr swr 95d87cce55532f8b
mega:7:150 profile/static-sr swr mach 1192c475b38ffed2
";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A compile input: the module and the request fields its profiling runs
/// need.
struct Input {
    name: String,
    module: Module,
    entry: String,
    args: Vec<Value>,
    train_args: Vec<Value>,
    fuel: u64,
}

fn inputs() -> Vec<Input> {
    let mut out: Vec<Input> = all_workloads(Scale::Test)
        .into_iter()
        .map(|w| Input {
            name: w.name.to_string(),
            module: w.module,
            entry: w.entry.to_string(),
            args: w.ref_args,
            train_args: w.train_args,
            fuel: w.fuel,
        })
        .collect();
    let mega = parse_module(&mega_source(7, 150)).expect("mega source parses");
    out.push(Input {
        name: "mega:7:150".into(),
        module: mega,
        entry: "f0".into(),
        args: vec![Value::I(0), Value::I(0)],
        train_args: vec![Value::I(0), Value::I(0)],
        fuel: CompileRequest::default().fuel,
    });
    out
}

#[test]
fn optimizer_output_matches_the_recorded_digests() {
    let mut table = String::new();
    for input in inputs() {
        for (cname, spec, control, store_sinking, sr) in CONFIGS {
            for target in [TargetId::Epic, TargetId::Swr] {
                let req = CompileRequest {
                    entry: input.entry.clone(),
                    args: input.args.clone(),
                    train_args: Some(input.train_args.clone()),
                    spec,
                    control,
                    strength_reduction: sr,
                    store_sinking,
                    jobs: 1,
                    fuel: input.fuel,
                    target,
                    explain_spec: true,
                    ..CompileRequest::default()
                };
                let fail = |e: CompileFailure| -> ! {
                    panic!("{} under {cname} on {target:?} failed: {e:?}", input.name)
                };
                // what `specc --emit hssa` prints: the form SSAPRE reads,
                // dumped by a compile that stops once it is built
                let mut dump_req = req.clone();
                dump_req.hooks.dump_after = PassSet::from_iter([Pass::Hssa]);
                dump_req.hooks.stop_after = Some(Pass::Hssa);
                dump_req.explain_spec = false;
                let dumped =
                    compile_module(input.module.clone(), &dump_req).unwrap_or_else(|e| fail(e));
                let hssa: String = dumped.dumps.iter().map(|d| d.text.clone() + "\n").collect();
                let out = compile_module(input.module.clone(), &req).unwrap_or_else(|e| fail(e));
                let mut bytes = print_module(&out.module).into_bytes();
                bytes.extend_from_slice(format!("{:?}", out.report.stats).as_bytes());
                bytes.extend_from_slice(out.explain.expect("explain_spec is set").as_bytes());
                bytes.extend_from_slice(hssa.as_bytes());
                table.push_str(&format!(
                    "{} {cname} {} {:016x}\n",
                    input.name,
                    target.name(),
                    fnv1a(&bytes)
                ));
                let mach = render_mprogram(&lower_module_for(&out.module, target.spec()));
                table.push_str(&format!(
                    "{} {cname} {} mach {:016x}\n",
                    input.name,
                    target.name(),
                    fnv1a(mach.as_bytes())
                ));
            }
        }
    }
    assert!(
        table == EXPECTED,
        "optimizer output moved; the table at this tree is:\n{table}"
    );
}
