//! Pins the optimizer's whole output, not just the lines a golden test
//! CHECKs.
//!
//! Every input below is compiled under five optimizer configurations on
//! both targets at `--jobs 1`, and the printed module plus the `OptStats`
//! block is folded into one FNV-1a digest per run. The golden suite
//! FileChecks small cases and `tests/mega_determinism.rs` compares job
//! counts with each other, so a change that moves output the same way at
//! every job count, outside the lines a golden pins, passes both; it
//! cannot pass this table. A performance change to the optimizer must
//! leave the table as it is. A change that means to move output records
//! the new table (the failure message prints it in the form below) and
//! says why it moved.

use specframe::ir::display::print_module;
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

/// One line per input × config × target: `input config target digest`.
const EXPECTED: &str = "\
ammp none/off epic 82d9d7d865ae148c
ammp none/off swr 82d9d7d865ae148c
ammp heuristic/static epic 2a72c442471d07aa
ammp heuristic/static swr 2a72c442471d07aa
ammp aggressive/off epic 5de2d22c0dabd48e
ammp aggressive/off swr 5de2d22c0dabd48e
ammp profile/profile+sink epic 2a72c442471d07aa
ammp profile/profile+sink swr 2a72c442471d07aa
ammp profile/static-sr epic de7476309a6cc23e
ammp profile/static-sr swr de7476309a6cc23e
art none/off epic 51a07ee6115b9adc
art none/off swr 51a07ee6115b9adc
art heuristic/static epic 09812e0a827b19d7
art heuristic/static swr 09812e0a827b19d7
art aggressive/off epic 21b579cf6b4a50de
art aggressive/off swr 21b579cf6b4a50de
art profile/profile+sink epic 09812e0a827b19d7
art profile/profile+sink swr 09812e0a827b19d7
art profile/static-sr epic 09812e0a827b19d7
art profile/static-sr swr 09812e0a827b19d7
equake_smvp none/off epic 561eb662425eb34d
equake_smvp none/off swr 561eb662425eb34d
equake_smvp heuristic/static epic 9648b71e58eec68e
equake_smvp heuristic/static swr 9648b71e58eec68e
equake_smvp aggressive/off epic 9f7cab77e2a8c8a3
equake_smvp aggressive/off swr 9f7cab77e2a8c8a3
equake_smvp profile/profile+sink epic 9648b71e58eec68e
equake_smvp profile/profile+sink swr 9648b71e58eec68e
equake_smvp profile/static-sr epic fdef275973f3e81f
equake_smvp profile/static-sr swr fdef275973f3e81f
gzip none/off epic 02ad2fda521f08b1
gzip none/off swr 02ad2fda521f08b1
gzip heuristic/static epic dbcefdc57105b4b6
gzip heuristic/static swr dbcefdc57105b4b6
gzip aggressive/off epic 02ad2fda521f08b1
gzip aggressive/off swr 02ad2fda521f08b1
gzip profile/profile+sink epic faf4aaed1cd0f755
gzip profile/profile+sink swr dbcefdc57105b4b6
gzip profile/static-sr epic b2680c4af91d0dd0
gzip profile/static-sr swr 2f63c3aef2f86feb
many_funcs none/off epic 07661c5ee6d4b8bb
many_funcs none/off swr 07661c5ee6d4b8bb
many_funcs heuristic/static epic 06344b3321eb078e
many_funcs heuristic/static swr 07661c5ee6d4b8bb
many_funcs aggressive/off epic 07661c5ee6d4b8bb
many_funcs aggressive/off swr 07661c5ee6d4b8bb
many_funcs profile/profile+sink epic 06344b3321eb078e
many_funcs profile/profile+sink swr 07661c5ee6d4b8bb
many_funcs profile/static-sr epic 06344b3321eb078e
many_funcs profile/static-sr swr 07661c5ee6d4b8bb
mcf none/off epic dc05bd0072665a97
mcf none/off swr dc05bd0072665a97
mcf heuristic/static epic ceb59ff34c3dcd63
mcf heuristic/static swr dc05bd0072665a97
mcf aggressive/off epic e9588409bcfcab21
mcf aggressive/off swr dc05bd0072665a97
mcf profile/profile+sink epic ceb59ff34c3dcd63
mcf profile/profile+sink swr dc05bd0072665a97
mcf profile/static-sr epic e0a652a316c4ba07
mcf profile/static-sr swr e9197c6c79c0ab6b
parser none/off epic b2e79ffce56987df
parser none/off swr b2e79ffce56987df
parser heuristic/static epic 0e5fa879ebd89da9
parser heuristic/static swr 961d64ad54a12daf
parser aggressive/off epic b7c375a53f4f023a
parser aggressive/off swr b2e79ffce56987df
parser profile/profile+sink epic 0e5fa879ebd89da9
parser profile/profile+sink swr 961d64ad54a12daf
parser profile/static-sr epic 1329c49ba30fd2e8
parser profile/static-sr swr 164c880658faacfe
twolf none/off epic efeeb10302f136e2
twolf none/off swr efeeb10302f136e2
twolf heuristic/static epic dc580c1c68059f8a
twolf heuristic/static swr 7476c7da5b3056eb
twolf aggressive/off epic af2e37f4a09bdbe3
twolf aggressive/off swr efeeb10302f136e2
twolf profile/profile+sink epic dc580c1c68059f8a
twolf profile/profile+sink swr 7476c7da5b3056eb
twolf profile/static-sr epic 410904f20b67127b
twolf profile/static-sr swr 258be23b64a07114
vpr none/off epic 95daf626f9e74b60
vpr none/off swr 95daf626f9e74b60
vpr heuristic/static epic fc12dbeb06c9c505
vpr heuristic/static swr 2e3c6f1e92335220
vpr aggressive/off epic 7297891782e6611b
vpr aggressive/off swr 95daf626f9e74b60
vpr profile/profile+sink epic fc12dbeb06c9c505
vpr profile/profile+sink swr 2e3c6f1e92335220
vpr profile/static-sr epic 68b4a3a15a862651
vpr profile/static-sr swr aee1ffc3df83d604
mega:7:150 none/off epic dd03eb44b710ac61
mega:7:150 none/off swr dd03eb44b710ac61
mega:7:150 heuristic/static epic 95f8a226aac20e2d
mega:7:150 heuristic/static swr 95f8a226aac20e2d
mega:7:150 aggressive/off epic dd03eb44b710ac61
mega:7:150 aggressive/off swr dd03eb44b710ac61
mega:7:150 profile/profile+sink epic dd03eb44b710ac61
mega:7:150 profile/profile+sink swr dd03eb44b710ac61
mega:7:150 profile/static-sr epic 95f8a226aac20e2d
mega:7:150 profile/static-sr swr 95f8a226aac20e2d
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
                    ..CompileRequest::default()
                };
                let out = compile_module(input.module.clone(), &req).unwrap_or_else(|e| {
                    panic!("{} under {cname} on {target:?} failed: {e:?}", input.name)
                });
                let mut bytes = print_module(&out.module).into_bytes();
                bytes.extend_from_slice(format!("{:?}", out.report.stats).as_bytes());
                table.push_str(&format!(
                    "{} {cname} {} {:016x}\n",
                    input.name,
                    target.name(),
                    fnv1a(&bytes)
                ));
            }
        }
    }
    assert!(
        table == EXPECTED,
        "optimizer output moved; the table at this tree is:\n{table}"
    );
}
