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
ammp none/off epic 8f57ea4c8075ce85
ammp none/off epic mach 23181e2a0c373418
ammp none/off swr 430ecc7793d69334
ammp none/off swr mach 23181e2a0c373418
ammp heuristic/static epic 18b1ce8648772972
ammp heuristic/static epic mach 3aed1cced699f7fc
ammp heuristic/static swr 899dc13fffe4b7ed
ammp heuristic/static swr mach 2a2d1682572fcc58
ammp aggressive/off epic 3556bcca4cdc04a5
ammp aggressive/off epic mach a938e137b42a8ab0
ammp aggressive/off swr 71b06e22ccb723f8
ammp aggressive/off swr mach 543ec9bcb5344e5d
ammp profile/profile+sink epic 34125498e9a507f9
ammp profile/profile+sink epic mach 3aed1cced699f7fc
ammp profile/profile+sink swr 060e5222b676f3e8
ammp profile/profile+sink swr mach 2a2d1682572fcc58
ammp profile/static-sr epic 754c2278bb545efb
ammp profile/static-sr epic mach 960ea2e2b905c216
ammp profile/static-sr swr 5782ca5364e5ba7e
ammp profile/static-sr swr mach 35314d1a16c179a0
art none/off epic d9a0aa46354cb646
art none/off epic mach eb31e26fbbaa1f36
art none/off swr 8297a046a6148829
art none/off swr mach eb31e26fbbaa1f36
art heuristic/static epic d3f6976c8192e6fc
art heuristic/static epic mach fb7e77775ef18e49
art heuristic/static swr 08e918c9ae46fef9
art heuristic/static swr mach 29148e532218a5b3
art aggressive/off epic 1d91e41c92293179
art aggressive/off epic mach b028903c66b29f6d
art aggressive/off swr a16c99c79898e2c2
art aggressive/off swr mach 2d7cf2b93631755b
art profile/profile+sink epic fff3579041bae3bd
art profile/profile+sink epic mach fb7e77775ef18e49
art profile/profile+sink swr 30a1c4ad0df100b6
art profile/profile+sink swr mach 29148e532218a5b3
art profile/static-sr epic fff3579041bae3bd
art profile/static-sr epic mach fb7e77775ef18e49
art profile/static-sr swr 30a1c4ad0df100b6
art profile/static-sr swr mach 29148e532218a5b3
equake_smvp none/off epic a4492c3c5cbfb275
equake_smvp none/off epic mach 23231137b7e7c77d
equake_smvp none/off swr 9dc925a813f0130e
equake_smvp none/off swr mach 23231137b7e7c77d
equake_smvp heuristic/static epic f455fd9a21965f2b
equake_smvp heuristic/static epic mach db89fc2ef5ef3f3f
equake_smvp heuristic/static swr 96d3fcd50a268696
equake_smvp heuristic/static swr mach bb150b484e66c646
equake_smvp aggressive/off epic c2c796f2775274e6
equake_smvp aggressive/off epic mach 1904afa956901ddc
equake_smvp aggressive/off swr b54d5fe59967f243
equake_smvp aggressive/off swr mach 17d59a5e99cf7ca1
equake_smvp profile/profile+sink epic 8be62a1272465b3e
equake_smvp profile/profile+sink epic mach db89fc2ef5ef3f3f
equake_smvp profile/profile+sink swr 2d14131112ee2389
equake_smvp profile/profile+sink swr mach bb150b484e66c646
equake_smvp profile/static-sr epic 849430f75cf76569
equake_smvp profile/static-sr epic mach 025724037d6f5981
equake_smvp profile/static-sr swr 176fd3c7be5c40ea
equake_smvp profile/static-sr swr mach c014f232bacf72ae
gzip none/off epic 36dacd872aef0af5
gzip none/off epic mach 291a9227ae93baf6
gzip none/off swr cce612f3db098d4e
gzip none/off swr mach 291a9227ae93baf6
gzip heuristic/static epic 97eff0dddbc245b2
gzip heuristic/static epic mach ed1ca703b1c18993
gzip heuristic/static swr 279eda7e29763e21
gzip heuristic/static swr mach ed1ca703b1c18993
gzip aggressive/off epic 625608f967a6a8a3
gzip aggressive/off epic mach 291a9227ae93baf6
gzip aggressive/off swr fa0ca66830e1fab0
gzip aggressive/off swr mach 291a9227ae93baf6
gzip profile/profile+sink epic cdc4cc9cc474e19e
gzip profile/profile+sink epic mach e61ed1b1d43ef711
gzip profile/profile+sink swr b3e92d0ea68e1ad5
gzip profile/profile+sink swr mach ed1ca703b1c18993
gzip profile/static-sr epic ef724dd5ac848e6b
gzip profile/static-sr epic mach c694d13a30c96c7c
gzip profile/static-sr swr 505bc34e2afcf0ec
gzip profile/static-sr swr mach c0faa6f568916b8e
many_funcs none/off epic 22b86e42324aed2f
many_funcs none/off epic mach a5f097ad924e0e1d
many_funcs none/off swr a63afb3e19c04df8
many_funcs none/off swr mach a5f097ad924e0e1d
many_funcs heuristic/static epic 57f18a442ec763b2
many_funcs heuristic/static epic mach 50f5606067d0bb6a
many_funcs heuristic/static swr e2a1e422bc47434a
many_funcs heuristic/static swr mach a5f097ad924e0e1d
many_funcs aggressive/off epic 70a980eac34f45fb
many_funcs aggressive/off epic mach a5f097ad924e0e1d
many_funcs aggressive/off swr c6226a04d535b6ac
many_funcs aggressive/off swr mach a5f097ad924e0e1d
many_funcs profile/profile+sink epic 0ebcac7ae7d6314d
many_funcs profile/profile+sink epic mach 50f5606067d0bb6a
many_funcs profile/profile+sink swr 4b49762cca464161
many_funcs profile/profile+sink swr mach a5f097ad924e0e1d
many_funcs profile/static-sr epic 0ebcac7ae7d6314d
many_funcs profile/static-sr epic mach 50f5606067d0bb6a
many_funcs profile/static-sr swr 4b49762cca464161
many_funcs profile/static-sr swr mach a5f097ad924e0e1d
mcf none/off epic 7a50a26bfa4c576e
mcf none/off epic mach 321ae7b0347b6b6d
mcf none/off swr ac6e481525d60c59
mcf none/off swr mach 321ae7b0347b6b6d
mcf heuristic/static epic 3fba66f4fac81474
mcf heuristic/static epic mach 67a31bc7ff2ec96e
mcf heuristic/static swr 5085e129534d8787
mcf heuristic/static swr mach 321ae7b0347b6b6d
mcf aggressive/off epic ca872d8b7813b5e1
mcf aggressive/off epic mach 7fe111a228cc8069
mcf aggressive/off swr 42afd2d536a0f114
mcf aggressive/off swr mach 321ae7b0347b6b6d
mcf profile/profile+sink epic 1c08f3e976caa08f
mcf profile/profile+sink epic mach 67a31bc7ff2ec96e
mcf profile/profile+sink swr b2619f2e8b52c14c
mcf profile/profile+sink swr mach 321ae7b0347b6b6d
mcf profile/static-sr epic 1be44cee811f480d
mcf profile/static-sr epic mach cc8f7ac397b88fe6
mcf profile/static-sr swr ff0660fd305178c6
mcf profile/static-sr swr mach 8bf1ec1f1aeafa55
parser none/off epic aff6c426ed8c6884
parser none/off epic mach 3e2f6ad9795e17aa
parser none/off swr f8700867aa37b3cd
parser none/off swr mach 3e2f6ad9795e17aa
parser heuristic/static epic 14f16f94a1ea0843
parser heuristic/static epic mach b586eaf0f07d8d9a
parser heuristic/static swr 662b1bf1f8d1f1b7
parser heuristic/static swr mach 9092a38e38db5b2a
parser aggressive/off epic 24d8caf8173b2423
parser aggressive/off epic mach 3e35e57692675b96
parser aggressive/off swr 30d28a3cd2a16395
parser aggressive/off swr mach 3e2f6ad9795e17aa
parser profile/profile+sink epic 13521e1935d25da0
parser profile/profile+sink epic mach b586eaf0f07d8d9a
parser profile/profile+sink swr 8152fd3ce8de9620
parser profile/profile+sink swr mach 9092a38e38db5b2a
parser profile/static-sr epic 749a43c58dadb2f9
parser profile/static-sr epic mach e0bea04a3c95b8d9
parser profile/static-sr swr d555e8ab94115c7f
parser profile/static-sr swr mach 6765d184c151b4b9
twolf none/off epic 4f6f0cff82f2b33e
twolf none/off epic mach 2a3220d4faf3480e
twolf none/off swr cc646d8acf4be767
twolf none/off swr mach 2a3220d4faf3480e
twolf heuristic/static epic 02149a61ea5e675d
twolf heuristic/static epic mach ac7530cf74ae80d4
twolf heuristic/static swr dbe9255c627e223f
twolf heuristic/static swr mach 9f33fddf1e241cc1
twolf aggressive/off epic 24032b52e09b3e11
twolf aggressive/off epic mach 3c0482dc92d33304
twolf aggressive/off swr e01f990c283ad67f
twolf aggressive/off swr mach 2a3220d4faf3480e
twolf profile/profile+sink epic 97530892332237ba
twolf profile/profile+sink epic mach ac7530cf74ae80d4
twolf profile/profile+sink swr 9777f59e19cb1d28
twolf profile/profile+sink swr mach 9f33fddf1e241cc1
twolf profile/static-sr epic 7fadc424b0c657d3
twolf profile/static-sr epic mach 789e5436cb928f86
twolf profile/static-sr swr b20d13ad277ea8b7
twolf profile/static-sr swr mach 1e4063f0ab69002d
vpr none/off epic cc28e1eb16b1367b
vpr none/off epic mach 316281eede2866d4
vpr none/off swr 0b9252ddcf3ee5b8
vpr none/off swr mach 316281eede2866d4
vpr heuristic/static epic c5e62911f0ee428b
vpr heuristic/static epic mach 144eb1bc77ee47a4
vpr heuristic/static swr f8cfef1209682c7c
vpr heuristic/static swr mach 30f1c7e49a040dff
vpr aggressive/off epic 169edee4b26ecd1e
vpr aggressive/off epic mach 26cca49c986c5a3b
vpr aggressive/off swr 6c7c839aedb4108b
vpr aggressive/off swr mach 316281eede2866d4
vpr profile/profile+sink epic 9078726fd21d256e
vpr profile/profile+sink epic mach 144eb1bc77ee47a4
vpr profile/profile+sink swr b6c9606d33c61f93
vpr profile/profile+sink swr mach 30f1c7e49a040dff
vpr profile/static-sr epic a54ce071a069cd73
vpr profile/static-sr epic mach 6534a4c820978b71
vpr profile/static-sr swr 53ece36c06ef0924
vpr profile/static-sr swr mach 4fab69a08ab9e6bb
mega:7:150 none/off epic 97a497a28ab7c8a6
mega:7:150 none/off epic mach d93d5574157b0cc5
mega:7:150 none/off swr 6b3a30444da3e121
mega:7:150 none/off swr mach d93d5574157b0cc5
mega:7:150 heuristic/static epic 008e747b87eb7b6a
mega:7:150 heuristic/static epic mach 8c0f83b540fc0138
mega:7:150 heuristic/static swr 3a485bb0eab023d5
mega:7:150 heuristic/static swr mach 945e800ab6cbbae8
mega:7:150 aggressive/off epic 2b717ae932751b88
mega:7:150 aggressive/off epic mach d93d5574157b0cc5
mega:7:150 aggressive/off swr 3b7edb69124f9043
mega:7:150 aggressive/off swr mach d93d5574157b0cc5
mega:7:150 profile/profile+sink epic e97431f6437620db
mega:7:150 profile/profile+sink epic mach d93d5574157b0cc5
mega:7:150 profile/profile+sink swr 868051674ccb92a0
mega:7:150 profile/profile+sink swr mach d93d5574157b0cc5
mega:7:150 profile/static-sr epic 7d464fadb81ae869
mega:7:150 profile/static-sr epic mach 8c0f83b540fc0138
mega:7:150 profile/static-sr swr 878210fa57ded68a
mega:7:150 profile/static-sr swr mach 945e800ab6cbbae8
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
