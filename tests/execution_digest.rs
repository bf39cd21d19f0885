//! Pins everything the two executors produce on the paper kernels.
//!
//! For every `Scale::Test` workload this folds into one FNV-1a digest per
//! row:
//!
//! * `ref` — the reference interpreter's result and `RunStats` on the
//!   reference input;
//! * `train` — the training run's result and `RunStats`, the alias profile
//!   as `write_alias_profile` prints it, every function's entry count and
//!   the count of every CFG edge in block order;
//! * `reuse` — the load-reuse simulator's report on the reference input;
//! * `sim` — the machine simulator's result and `Counters` for the O3
//!   (`--spec none`) and paper (`--spec profile`) compiles, on both
//!   targets, under nine ALAT fault policies: the four of the fault
//!   matrix CI sweeps, and one of every other spec form (`forced-miss`, a
//!   custom geometry, an explicit `random` denominator and `flash-clear`
//!   period, and an `evict-at` schedule).
//!
//! A second test pins the premise `specc` rests on when it uses a training
//! run as its reference run: whatever a training run collects, its result
//! and `RunStats` are the reference interpreter's, and each profile is the
//! one a full training run collects.
//!
//! The optimizer digest (`tests/optimizer_output_digest.rs`) sees a profile
//! only through the code the optimizer emits from it, so a profile change
//! the optimizer happens to ignore passes it; it cannot pass this table. A
//! performance change to the interpreter, the profilers or the simulator
//! must leave the table as it is. A change that means to move an output
//! records the new table (the failure message prints it in the form below)
//! and says why it moved.

use specframe::machine::run_machine_with_policy_on;
use specframe::prelude::*;
use specframe::profile::{train, write_alias_profile, Collect};

/// The fault policies every compiled kernel is simulated under.
const POLICIES: [&str; 9] = [
    "default",
    "always-miss",
    "random:1",
    "flash-clear",
    "forced-miss",
    "geom:4:2",
    "random:7:3",
    "flash-clear:10",
    "evict-at:3:40:400",
];

/// One line per workload and row: `workload row digest`.
const EXPECTED: &str = "\
ammp ref 708214a161933bee
ammp train 2d2ba1004ce28aec
ammp reuse f493597d1b7dc4e0
ammp sim O3 epic default f936d94f687a98e4
ammp sim O3 epic always-miss f936d94f687a98e4
ammp sim O3 epic random:1 f936d94f687a98e4
ammp sim O3 epic flash-clear e57ed093e79dafe2
ammp sim O3 epic forced-miss f936d94f687a98e4
ammp sim O3 epic geom:4:2 f936d94f687a98e4
ammp sim O3 epic random:7:3 f936d94f687a98e4
ammp sim O3 epic flash-clear:10 afb1f76e4fefcf95
ammp sim O3 epic evict-at:3:40:400 e8541da833e14f0d
ammp sim O3 swr default 759db8d8bd164c9e
ammp sim O3 swr always-miss 759db8d8bd164c9e
ammp sim O3 swr random:1 759db8d8bd164c9e
ammp sim O3 swr flash-clear 40158f02aafc57a4
ammp sim O3 swr forced-miss 759db8d8bd164c9e
ammp sim O3 swr geom:4:2 759db8d8bd164c9e
ammp sim O3 swr random:7:3 759db8d8bd164c9e
ammp sim O3 swr flash-clear:10 cc1dd407085751be
ammp sim O3 swr evict-at:3:40:400 8070bc6bddc7a47b
ammp sim paper epic default c64069f199743ddc
ammp sim paper epic always-miss 3d7e37fdab052f4d
ammp sim paper epic random:1 14a471e1461a62d5
ammp sim paper epic flash-clear 8e66bf373adbf264
ammp sim paper epic forced-miss 3d7e37fdab052f4d
ammp sim paper epic geom:4:2 c64069f199743ddc
ammp sim paper epic random:7:3 ecf8abfe34419166
ammp sim paper epic flash-clear:10 89b0b61af7aa1a2e
ammp sim paper epic evict-at:3:40:400 e9237783fd7bf575
ammp sim paper swr default afc5f837923cbf59
ammp sim paper swr always-miss 159302a57b5e20f9
ammp sim paper swr random:1 d357172fb2e7b764
ammp sim paper swr flash-clear aaaafee38b03169a
ammp sim paper swr forced-miss 159302a57b5e20f9
ammp sim paper swr geom:4:2 afc5f837923cbf59
ammp sim paper swr random:7:3 d357172fb2e7b764
ammp sim paper swr flash-clear:10 6737e132a07fac1b
ammp sim paper swr evict-at:3:40:400 0eeb24039cc45b54
art ref f3f9aba43a1afc0c
art train 65f7e3e0d20cab06
art reuse efcb152dfbbf56fd
art sim O3 epic default 90d724c565844c02
art sim O3 epic always-miss 90d724c565844c02
art sim O3 epic random:1 90d724c565844c02
art sim O3 epic flash-clear 509d31028e918b56
art sim O3 epic forced-miss 90d724c565844c02
art sim O3 epic geom:4:2 90d724c565844c02
art sim O3 epic random:7:3 90d724c565844c02
art sim O3 epic flash-clear:10 a0f80a11ecf0885b
art sim O3 epic evict-at:3:40:400 ed252aede455ee9f
art sim O3 swr default 90d724c565844c02
art sim O3 swr always-miss 90d724c565844c02
art sim O3 swr random:1 90d724c565844c02
art sim O3 swr flash-clear 509d31028e918b56
art sim O3 swr forced-miss 90d724c565844c02
art sim O3 swr geom:4:2 90d724c565844c02
art sim O3 swr random:7:3 90d724c565844c02
art sim O3 swr flash-clear:10 a0f80a11ecf0885b
art sim O3 swr evict-at:3:40:400 ed252aede455ee9f
art sim paper epic default 7deeb7e72e917f6d
art sim paper epic always-miss 3e368c708328e7a0
art sim paper epic random:1 b9c6a822d1fe4b85
art sim paper epic flash-clear 7d8a9343bac1a7a3
art sim paper epic forced-miss 3e368c708328e7a0
art sim paper epic geom:4:2 8a770b3fc5771352
art sim paper epic random:7:3 451d3dac7ce2ab6d
art sim paper epic flash-clear:10 a79bedb8f5504bb3
art sim paper epic evict-at:3:40:400 b731ffe45e188e04
art sim paper swr default 74404167cbaf33a6
art sim paper swr always-miss 74404167cbaf33a6
art sim paper swr random:1 08d3412f095cce2d
art sim paper swr flash-clear befc917e4a71ad2d
art sim paper swr forced-miss 74404167cbaf33a6
art sim paper swr geom:4:2 74404167cbaf33a6
art sim paper swr random:7:3 08d3412f095cce2d
art sim paper swr flash-clear:10 570128047b3004ab
art sim paper swr evict-at:3:40:400 862531751d304696
equake_smvp ref b6216deeb98ceeab
equake_smvp train ad1e2c095fc8279e
equake_smvp reuse 50a92cea4d31ae1e
equake_smvp sim O3 epic default eb6b7fee0654c1c7
equake_smvp sim O3 epic always-miss eb6b7fee0654c1c7
equake_smvp sim O3 epic random:1 eb6b7fee0654c1c7
equake_smvp sim O3 epic flash-clear 6a729802b9333a24
equake_smvp sim O3 epic forced-miss eb6b7fee0654c1c7
equake_smvp sim O3 epic geom:4:2 eb6b7fee0654c1c7
equake_smvp sim O3 epic random:7:3 eb6b7fee0654c1c7
equake_smvp sim O3 epic flash-clear:10 049f690a805f5994
equake_smvp sim O3 epic evict-at:3:40:400 3acd67e823d753ca
equake_smvp sim O3 swr default eb6b7fee0654c1c7
equake_smvp sim O3 swr always-miss eb6b7fee0654c1c7
equake_smvp sim O3 swr random:1 eb6b7fee0654c1c7
equake_smvp sim O3 swr flash-clear 6a729802b9333a24
equake_smvp sim O3 swr forced-miss eb6b7fee0654c1c7
equake_smvp sim O3 swr geom:4:2 eb6b7fee0654c1c7
equake_smvp sim O3 swr random:7:3 eb6b7fee0654c1c7
equake_smvp sim O3 swr flash-clear:10 049f690a805f5994
equake_smvp sim O3 swr evict-at:3:40:400 3acd67e823d753ca
equake_smvp sim paper epic default 4500c3cd8d081baf
equake_smvp sim paper epic always-miss 0fc954bb47b8949a
equake_smvp sim paper epic random:1 11023e44a57d9667
equake_smvp sim paper epic flash-clear 734b7c7dde35ace8
equake_smvp sim paper epic forced-miss 0fc954bb47b8949a
equake_smvp sim paper epic geom:4:2 7cbb7d45d23e0489
equake_smvp sim paper epic random:7:3 1132f36aad971b5a
equake_smvp sim paper epic flash-clear:10 23a28155d2283dd1
equake_smvp sim paper epic evict-at:3:40:400 daecbd39a2ff29c2
equake_smvp sim paper swr default a73d47fc35089c2f
equake_smvp sim paper swr always-miss cf0976a971e5b69c
equake_smvp sim paper swr random:1 e598c10b06822f33
equake_smvp sim paper swr flash-clear aa7fbb21943b9b96
equake_smvp sim paper swr forced-miss cf0976a971e5b69c
equake_smvp sim paper swr geom:4:2 a73d47fc35089c2f
equake_smvp sim paper swr random:7:3 e598c10b06822f33
equake_smvp sim paper swr flash-clear:10 eb7f5ff7dddbf5ba
equake_smvp sim paper swr evict-at:3:40:400 490ba7fbd4022b5b
gzip ref 2293fcf32b48469b
gzip train 7fa01ad272fb2584
gzip reuse b09cdf0e6bd36a4a
gzip sim O3 epic default 30723a920d60badf
gzip sim O3 epic always-miss 30723a920d60badf
gzip sim O3 epic random:1 30723a920d60badf
gzip sim O3 epic flash-clear 961578dcc53f66b1
gzip sim O3 epic forced-miss 30723a920d60badf
gzip sim O3 epic geom:4:2 30723a920d60badf
gzip sim O3 epic random:7:3 30723a920d60badf
gzip sim O3 epic flash-clear:10 551200182e1441f5
gzip sim O3 epic evict-at:3:40:400 4c00123c911af742
gzip sim O3 swr default 30723a920d60badf
gzip sim O3 swr always-miss 30723a920d60badf
gzip sim O3 swr random:1 30723a920d60badf
gzip sim O3 swr flash-clear 961578dcc53f66b1
gzip sim O3 swr forced-miss 30723a920d60badf
gzip sim O3 swr geom:4:2 30723a920d60badf
gzip sim O3 swr random:7:3 30723a920d60badf
gzip sim O3 swr flash-clear:10 551200182e1441f5
gzip sim O3 swr evict-at:3:40:400 4c00123c911af742
gzip sim paper epic default da5fb12d1d8a1ae2
gzip sim paper epic always-miss 250e59a96b915d3a
gzip sim paper epic random:1 c9de04ab15ea362e
gzip sim paper epic flash-clear 321d70332e44592c
gzip sim paper epic forced-miss ce9af2d47801bbf7
gzip sim paper epic geom:4:2 da5fb12d1d8a1ae2
gzip sim paper epic random:7:3 6e735c7eff080820
gzip sim paper epic flash-clear:10 40c3c50b5f0aa5ad
gzip sim paper epic evict-at:3:40:400 a13f54beb6db6e4f
gzip sim paper swr default 30723a920d60badf
gzip sim paper swr always-miss 30723a920d60badf
gzip sim paper swr random:1 30723a920d60badf
gzip sim paper swr flash-clear 961578dcc53f66b1
gzip sim paper swr forced-miss 30723a920d60badf
gzip sim paper swr geom:4:2 30723a920d60badf
gzip sim paper swr random:7:3 30723a920d60badf
gzip sim paper swr flash-clear:10 551200182e1441f5
gzip sim paper swr evict-at:3:40:400 4c00123c911af742
many_funcs ref 7dd49339fb124587
many_funcs train 28b7da88ddcf561b
many_funcs reuse 8b9d3ee7964a5d22
many_funcs sim O3 epic default 568e1eca6bc3b0bd
many_funcs sim O3 epic always-miss 568e1eca6bc3b0bd
many_funcs sim O3 epic random:1 568e1eca6bc3b0bd
many_funcs sim O3 epic flash-clear cb0d219b751db3bb
many_funcs sim O3 epic forced-miss 568e1eca6bc3b0bd
many_funcs sim O3 epic geom:4:2 568e1eca6bc3b0bd
many_funcs sim O3 epic random:7:3 568e1eca6bc3b0bd
many_funcs sim O3 epic flash-clear:10 5bdb9448497c1058
many_funcs sim O3 epic evict-at:3:40:400 7cf7798f60357c64
many_funcs sim O3 swr default 568e1eca6bc3b0bd
many_funcs sim O3 swr always-miss 568e1eca6bc3b0bd
many_funcs sim O3 swr random:1 568e1eca6bc3b0bd
many_funcs sim O3 swr flash-clear cb0d219b751db3bb
many_funcs sim O3 swr forced-miss 568e1eca6bc3b0bd
many_funcs sim O3 swr geom:4:2 568e1eca6bc3b0bd
many_funcs sim O3 swr random:7:3 568e1eca6bc3b0bd
many_funcs sim O3 swr flash-clear:10 5bdb9448497c1058
many_funcs sim O3 swr evict-at:3:40:400 7cf7798f60357c64
many_funcs sim paper epic default f30d182d8ef18502
many_funcs sim paper epic always-miss ccbc0c44d61f09ac
many_funcs sim paper epic random:1 12b47a2fc807343b
many_funcs sim paper epic flash-clear b4c512aaab13c935
many_funcs sim paper epic forced-miss ccbc0c44d61f09ac
many_funcs sim paper epic geom:4:2 f30d182d8ef18502
many_funcs sim paper epic random:7:3 77e1cfde380650c2
many_funcs sim paper epic flash-clear:10 8364d0145e342c13
many_funcs sim paper epic evict-at:3:40:400 5d5ffa760e718ad1
many_funcs sim paper swr default 568e1eca6bc3b0bd
many_funcs sim paper swr always-miss 568e1eca6bc3b0bd
many_funcs sim paper swr random:1 568e1eca6bc3b0bd
many_funcs sim paper swr flash-clear cb0d219b751db3bb
many_funcs sim paper swr forced-miss 568e1eca6bc3b0bd
many_funcs sim paper swr geom:4:2 568e1eca6bc3b0bd
many_funcs sim paper swr random:7:3 568e1eca6bc3b0bd
many_funcs sim paper swr flash-clear:10 5bdb9448497c1058
many_funcs sim paper swr evict-at:3:40:400 7cf7798f60357c64
mcf ref be85e58f238aaf41
mcf train b0794adc9b9b091d
mcf reuse 5127f65b6257dc3c
mcf sim O3 epic default 10c4175855ddfcc7
mcf sim O3 epic always-miss 10c4175855ddfcc7
mcf sim O3 epic random:1 10c4175855ddfcc7
mcf sim O3 epic flash-clear ffd3338ccaabde13
mcf sim O3 epic forced-miss 10c4175855ddfcc7
mcf sim O3 epic geom:4:2 10c4175855ddfcc7
mcf sim O3 epic random:7:3 10c4175855ddfcc7
mcf sim O3 epic flash-clear:10 ff421d0556151608
mcf sim O3 epic evict-at:3:40:400 6025ff5273608eca
mcf sim O3 swr default 10c4175855ddfcc7
mcf sim O3 swr always-miss 10c4175855ddfcc7
mcf sim O3 swr random:1 10c4175855ddfcc7
mcf sim O3 swr flash-clear ffd3338ccaabde13
mcf sim O3 swr forced-miss 10c4175855ddfcc7
mcf sim O3 swr geom:4:2 10c4175855ddfcc7
mcf sim O3 swr random:7:3 10c4175855ddfcc7
mcf sim O3 swr flash-clear:10 ff421d0556151608
mcf sim O3 swr evict-at:3:40:400 6025ff5273608eca
mcf sim paper epic default b3c0e393f9fdf2ea
mcf sim paper epic always-miss ae3300b1c1c0c270
mcf sim paper epic random:1 7c57f4fcfbc45793
mcf sim paper epic flash-clear 4fa01451130d3420
mcf sim paper epic forced-miss ae3300b1c1c0c270
mcf sim paper epic geom:4:2 b3c0e393f9fdf2ea
mcf sim paper epic random:7:3 6d87a55ec6058663
mcf sim paper epic flash-clear:10 59f38715bcc2786d
mcf sim paper epic evict-at:3:40:400 6b89ea7e8087dbb7
mcf sim paper swr default 10c4175855ddfcc7
mcf sim paper swr always-miss 10c4175855ddfcc7
mcf sim paper swr random:1 10c4175855ddfcc7
mcf sim paper swr flash-clear ffd3338ccaabde13
mcf sim paper swr forced-miss 10c4175855ddfcc7
mcf sim paper swr geom:4:2 10c4175855ddfcc7
mcf sim paper swr random:7:3 10c4175855ddfcc7
mcf sim paper swr flash-clear:10 ff421d0556151608
mcf sim paper swr evict-at:3:40:400 6025ff5273608eca
parser ref 98ed770905af383f
parser train 20c24364c5aee2fb
parser reuse 4172ffcd1d477ee3
parser sim O3 epic default 049ba368c734c4df
parser sim O3 epic always-miss 049ba368c734c4df
parser sim O3 epic random:1 049ba368c734c4df
parser sim O3 epic flash-clear 069e5336368fc33a
parser sim O3 epic forced-miss 049ba368c734c4df
parser sim O3 epic geom:4:2 049ba368c734c4df
parser sim O3 epic random:7:3 049ba368c734c4df
parser sim O3 epic flash-clear:10 4b5d25ebaac8daa8
parser sim O3 epic evict-at:3:40:400 20297b134aef0142
parser sim O3 swr default 049ba368c734c4df
parser sim O3 swr always-miss 049ba368c734c4df
parser sim O3 swr random:1 049ba368c734c4df
parser sim O3 swr flash-clear 069e5336368fc33a
parser sim O3 swr forced-miss 049ba368c734c4df
parser sim O3 swr geom:4:2 049ba368c734c4df
parser sim O3 swr random:7:3 049ba368c734c4df
parser sim O3 swr flash-clear:10 4b5d25ebaac8daa8
parser sim O3 swr evict-at:3:40:400 20297b134aef0142
parser sim paper epic default 54e5928ed82c6941
parser sim paper epic always-miss f4f982fb1fba02c7
parser sim paper epic random:1 e6b6cd250394b30c
parser sim paper epic flash-clear 81019de7ced2c9a9
parser sim paper epic forced-miss f4f982fb1fba02c7
parser sim paper epic geom:4:2 54e5928ed82c6941
parser sim paper epic random:7:3 f6987c063c2d61b1
parser sim paper epic flash-clear:10 c8d5675e6b5c5d70
parser sim paper epic evict-at:3:40:400 238685bc037512b8
parser sim paper swr default 049ba368c734c4df
parser sim paper swr always-miss 049ba368c734c4df
parser sim paper swr random:1 049ba368c734c4df
parser sim paper swr flash-clear 069e5336368fc33a
parser sim paper swr forced-miss 049ba368c734c4df
parser sim paper swr geom:4:2 049ba368c734c4df
parser sim paper swr random:7:3 049ba368c734c4df
parser sim paper swr flash-clear:10 4b5d25ebaac8daa8
parser sim paper swr evict-at:3:40:400 20297b134aef0142
twolf ref 1c4ec2ae8dd33502
twolf train 52e80cfc791689e0
twolf reuse 03773a1517f28405
twolf sim O3 epic default 4f25990ff4b2efab
twolf sim O3 epic always-miss 4f25990ff4b2efab
twolf sim O3 epic random:1 4f25990ff4b2efab
twolf sim O3 epic flash-clear 34b5596d5b78fe91
twolf sim O3 epic forced-miss 4f25990ff4b2efab
twolf sim O3 epic geom:4:2 4f25990ff4b2efab
twolf sim O3 epic random:7:3 4f25990ff4b2efab
twolf sim O3 epic flash-clear:10 9fd2bdf9f9fc471e
twolf sim O3 epic evict-at:3:40:400 d2f96bf31d53debe
twolf sim O3 swr default 4f25990ff4b2efab
twolf sim O3 swr always-miss 4f25990ff4b2efab
twolf sim O3 swr random:1 4f25990ff4b2efab
twolf sim O3 swr flash-clear 34b5596d5b78fe91
twolf sim O3 swr forced-miss 4f25990ff4b2efab
twolf sim O3 swr geom:4:2 4f25990ff4b2efab
twolf sim O3 swr random:7:3 4f25990ff4b2efab
twolf sim O3 swr flash-clear:10 9fd2bdf9f9fc471e
twolf sim O3 swr evict-at:3:40:400 d2f96bf31d53debe
twolf sim paper epic default d54675419a5f9686
twolf sim paper epic always-miss 34349b182a47f3ab
twolf sim paper epic random:1 20fe0fe1fb70d009
twolf sim paper epic flash-clear b046ee70a0bec919
twolf sim paper epic forced-miss 34349b182a47f3ab
twolf sim paper epic geom:4:2 d54675419a5f9686
twolf sim paper epic random:7:3 f4a3253983c6b6ad
twolf sim paper epic flash-clear:10 5f3e8709e3d12b22
twolf sim paper epic evict-at:3:40:400 1ce754430a029de3
twolf sim paper swr default 4f25990ff4b2efab
twolf sim paper swr always-miss 4f25990ff4b2efab
twolf sim paper swr random:1 4f25990ff4b2efab
twolf sim paper swr flash-clear 34b5596d5b78fe91
twolf sim paper swr forced-miss 4f25990ff4b2efab
twolf sim paper swr geom:4:2 4f25990ff4b2efab
twolf sim paper swr random:7:3 4f25990ff4b2efab
twolf sim paper swr flash-clear:10 9fd2bdf9f9fc471e
twolf sim paper swr evict-at:3:40:400 d2f96bf31d53debe
vpr ref d9ea22f8b2cd3662
vpr train 9cbf8520bb73897f
vpr reuse 2f8be6efd556587b
vpr sim O3 epic default ad6e0ce01d6835f8
vpr sim O3 epic always-miss ad6e0ce01d6835f8
vpr sim O3 epic random:1 ad6e0ce01d6835f8
vpr sim O3 epic flash-clear 48bee99db0bb3a61
vpr sim O3 epic forced-miss ad6e0ce01d6835f8
vpr sim O3 epic geom:4:2 ad6e0ce01d6835f8
vpr sim O3 epic random:7:3 ad6e0ce01d6835f8
vpr sim O3 epic flash-clear:10 4e1706ab89476946
vpr sim O3 epic evict-at:3:40:400 25940d6346b40431
vpr sim O3 swr default ad6e0ce01d6835f8
vpr sim O3 swr always-miss ad6e0ce01d6835f8
vpr sim O3 swr random:1 ad6e0ce01d6835f8
vpr sim O3 swr flash-clear 48bee99db0bb3a61
vpr sim O3 swr forced-miss ad6e0ce01d6835f8
vpr sim O3 swr geom:4:2 ad6e0ce01d6835f8
vpr sim O3 swr random:7:3 ad6e0ce01d6835f8
vpr sim O3 swr flash-clear:10 4e1706ab89476946
vpr sim O3 swr evict-at:3:40:400 25940d6346b40431
vpr sim paper epic default 93bfffe728980694
vpr sim paper epic always-miss 3dcd0e2c97c0c828
vpr sim paper epic random:1 2d7bf63e70b46609
vpr sim paper epic flash-clear af5569a9aa19f246
vpr sim paper epic forced-miss 3dcd0e2c97c0c828
vpr sim paper epic geom:4:2 93bfffe728980694
vpr sim paper epic random:7:3 279473cc61d23454
vpr sim paper epic flash-clear:10 15a1b127f50bb0a9
vpr sim paper epic evict-at:3:40:400 deec3ad80fc0e4bd
vpr sim paper swr default ad6e0ce01d6835f8
vpr sim paper swr always-miss ad6e0ce01d6835f8
vpr sim paper swr random:1 ad6e0ce01d6835f8
vpr sim paper swr flash-clear 48bee99db0bb3a61
vpr sim paper swr forced-miss ad6e0ce01d6835f8
vpr sim paper swr geom:4:2 ad6e0ce01d6835f8
vpr sim paper swr random:7:3 ad6e0ce01d6835f8
vpr sim paper swr flash-clear:10 4e1706ab89476946
vpr sim paper swr evict-at:3:40:400 25940d6346b40431
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

#[test]
fn executor_outputs_match_the_recorded_digests() {
    let mut table = String::new();
    let mut row = |w: &Workload, name: &str, text: &str| {
        table.push_str(&format!(
            "{} {name} {:016x}\n",
            w.name,
            fnv1a(text.as_bytes())
        ));
    };
    for w in all_workloads(Scale::Test) {
        let mut m = w.module.clone();
        prepare_module(&mut m);

        let (want, stats) = run(&m, w.entry, &w.ref_args, w.fuel).expect("reference run");
        row(&w, "ref", &format!("{want:?} {stats:?}"));

        let t = train(&m, w.entry, &w.train_args, w.fuel, Collect::ALL).expect("training run");
        let (aprof, eprof) = (t.alias.expect("collected"), t.edges.expect("collected"));
        let mut text = format!(
            "{:?} {:?}\n{}",
            t.result,
            t.stats,
            write_alias_profile(&aprof)
        );
        for (fi, f) in m.funcs.iter().enumerate() {
            let fid = specframe::ir::FuncId::from_index(fi);
            text.push_str(&format!("{} entries {}:", f.name, eprof.entry_count(fid)));
            for b in f.block_ids() {
                for s in f.block(b).term.successors() {
                    text.push_str(&format!(" {}", eprof.edge_count(fid, b, s)));
                }
            }
            text.push('\n');
        }
        row(&w, "train", &text);

        let mut reuse = ReuseSimulator::new(&m);
        run_with(&m, w.entry, &w.ref_args, w.fuel, &mut reuse).expect("reuse run");
        row(&w, "reuse", &format!("{:?}", reuse.report()));

        for (config, data) in [
            ("O3", SpecSource::None),
            ("paper", SpecSource::Profile(&aprof)),
        ] {
            for target in TargetId::ALL {
                let mut opt = m.clone();
                optimize(
                    &mut opt,
                    &OptOptions {
                        data,
                        control: ControlSpec::Profile(&eprof),
                        strength_reduction: true,
                        lftr: true,
                        store_sinking: true,
                        target,
                    },
                );
                let prog = lower_module_for(&opt, target.spec());
                for policy in POLICIES {
                    let (got, counters) = run_machine_with_policy_on(
                        &prog,
                        target.spec(),
                        w.entry,
                        &w.ref_args,
                        w.fuel,
                        &parse_fault_policy(policy).expect("known policy"),
                    )
                    .expect("simulation");
                    assert_eq!(got, want, "{} {config} {target:?} {policy}", w.name);
                    row(
                        &w,
                        &format!("sim {config} {} {policy}", target.name()),
                        &format!("{got:?} {counters:?}"),
                    );
                }
            }
        }
    }
    assert!(
        table == EXPECTED,
        "executor output moved; the table at this tree is:\n{table}"
    );
}

#[test]
fn every_way_of_training_is_a_reference_run() {
    let alias_only = Collect {
        alias: true,
        edges: false,
    };
    let edges_only = Collect {
        alias: false,
        edges: true,
    };
    for w in all_workloads(Scale::Test) {
        let mut m = w.module.clone();
        prepare_module(&mut m);
        for (input, args) in [("ref", &w.ref_args), ("train", &w.train_args)] {
            let label = format!("{} on {input} args", w.name);
            let want = run(&m, w.entry, args, w.fuel).expect("reference run");
            let full = train(&m, w.entry, args, w.fuel, Collect::ALL).expect("training run");
            assert_eq!((full.result, full.stats), want, "{label}: alias and edges");
            let alias = train(&m, w.entry, args, w.fuel, alias_only).expect("training run");
            assert_eq!((alias.result, alias.stats), want, "{label}: alias only");
            assert_eq!(alias.alias, full.alias, "{label}: alias only");
            assert_eq!(alias.edges, None, "{label}: alias only");
            let edges = train(&m, w.entry, args, w.fuel, edges_only).expect("training run");
            assert_eq!((edges.result, edges.stats), want, "{label}: edges only");
            assert_eq!(edges.edges, full.edges, "{label}: edges only");
            assert_eq!(edges.alias, None, "{label}: edges only");
        }
    }
}
