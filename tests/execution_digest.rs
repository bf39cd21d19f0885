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
ammp sim O3 epic default 597547658a21573f
ammp sim O3 epic always-miss 597547658a21573f
ammp sim O3 epic random:1 597547658a21573f
ammp sim O3 epic flash-clear 9a6198ec06b19c10
ammp sim O3 epic forced-miss 597547658a21573f
ammp sim O3 epic geom:4:2 597547658a21573f
ammp sim O3 epic random:7:3 597547658a21573f
ammp sim O3 epic flash-clear:10 fb01f0ac70f4c47e
ammp sim O3 epic evict-at:3:40:400 3ec687debae3f952
ammp sim O3 swr default ec27f9947d62602b
ammp sim O3 swr always-miss ec27f9947d62602b
ammp sim O3 swr random:1 ec27f9947d62602b
ammp sim O3 swr flash-clear 931397472c589211
ammp sim O3 swr forced-miss ec27f9947d62602b
ammp sim O3 swr geom:4:2 ec27f9947d62602b
ammp sim O3 swr random:7:3 ec27f9947d62602b
ammp sim O3 swr flash-clear:10 d5a88bc1f8f9b787
ammp sim O3 swr evict-at:3:40:400 1c38ed3b7cbdae0e
ammp sim paper epic default 75f88b057c7babab
ammp sim paper epic always-miss 022eb89e879f6a29
ammp sim paper epic random:1 5baf73d03d54b83c
ammp sim paper epic flash-clear 49c2d464eee0d216
ammp sim paper epic forced-miss 022eb89e879f6a29
ammp sim paper epic geom:4:2 75f88b057c7babab
ammp sim paper epic random:7:3 b3c5615df96926a2
ammp sim paper epic flash-clear:10 c21e6bdd9e9785c4
ammp sim paper epic evict-at:3:40:400 0844427cdad1673e
ammp sim paper swr default 06b402d52db4b800
ammp sim paper swr always-miss 2d3aae8bfd8a6e22
ammp sim paper swr random:1 a05d43887d69216b
ammp sim paper swr flash-clear 22b40899d354bb5d
ammp sim paper swr forced-miss 2d3aae8bfd8a6e22
ammp sim paper swr geom:4:2 06b402d52db4b800
ammp sim paper swr random:7:3 a05d43887d69216b
ammp sim paper swr flash-clear:10 d494f16d1ead486d
ammp sim paper swr evict-at:3:40:400 8a787e7237015437
art ref f3f9aba43a1afc0c
art train 65f7e3e0d20cab06
art reuse efcb152dfbbf56fd
art sim O3 epic default b8785c00f4d4c8ff
art sim O3 epic always-miss b8785c00f4d4c8ff
art sim O3 epic random:1 b8785c00f4d4c8ff
art sim O3 epic flash-clear 506ef8bd8bb39547
art sim O3 epic forced-miss b8785c00f4d4c8ff
art sim O3 epic geom:4:2 b8785c00f4d4c8ff
art sim O3 epic random:7:3 b8785c00f4d4c8ff
art sim O3 epic flash-clear:10 334c9d3ae7cf1ca0
art sim O3 epic evict-at:3:40:400 435aaa8bd9c3dee2
art sim O3 swr default b8785c00f4d4c8ff
art sim O3 swr always-miss b8785c00f4d4c8ff
art sim O3 swr random:1 b8785c00f4d4c8ff
art sim O3 swr flash-clear 506ef8bd8bb39547
art sim O3 swr forced-miss b8785c00f4d4c8ff
art sim O3 swr geom:4:2 b8785c00f4d4c8ff
art sim O3 swr random:7:3 b8785c00f4d4c8ff
art sim O3 swr flash-clear:10 334c9d3ae7cf1ca0
art sim O3 swr evict-at:3:40:400 435aaa8bd9c3dee2
art sim paper epic default beee77003b468ddb
art sim paper epic always-miss facf8d1a6d5d464e
art sim paper epic random:1 49e9b878bb369899
art sim paper epic flash-clear 9c857c63d3e18a77
art sim paper epic forced-miss facf8d1a6d5d464e
art sim paper epic geom:4:2 c8101bf5356bf8f2
art sim paper epic random:7:3 278b794d2412dbb2
art sim paper epic flash-clear:10 de98a7eb2fb7e937
art sim paper epic evict-at:3:40:400 92b500a5891c175e
art sim paper swr default a6a5b123c194e600
art sim paper swr always-miss a6a5b123c194e600
art sim paper swr random:1 2cbc319416121d37
art sim paper swr flash-clear 030830506d427200
art sim paper swr forced-miss a6a5b123c194e600
art sim paper swr geom:4:2 a6a5b123c194e600
art sim paper swr random:7:3 2cbc319416121d37
art sim paper swr flash-clear:10 8468de44d9dad05e
art sim paper swr evict-at:3:40:400 aa5d33ddf38a9200
equake_smvp ref b6216deeb98ceeab
equake_smvp train ad1e2c095fc8279e
equake_smvp reuse 50a92cea4d31ae1e
equake_smvp sim O3 epic default cbbb0f319e716e7f
equake_smvp sim O3 epic always-miss cbbb0f319e716e7f
equake_smvp sim O3 epic random:1 cbbb0f319e716e7f
equake_smvp sim O3 epic flash-clear ca73c0eaf5b15759
equake_smvp sim O3 epic forced-miss cbbb0f319e716e7f
equake_smvp sim O3 epic geom:4:2 cbbb0f319e716e7f
equake_smvp sim O3 epic random:7:3 cbbb0f319e716e7f
equake_smvp sim O3 epic flash-clear:10 305acfbe3f339031
equake_smvp sim O3 epic evict-at:3:40:400 569d5dbc83608462
equake_smvp sim O3 swr default cbbb0f319e716e7f
equake_smvp sim O3 swr always-miss cbbb0f319e716e7f
equake_smvp sim O3 swr random:1 cbbb0f319e716e7f
equake_smvp sim O3 swr flash-clear ca73c0eaf5b15759
equake_smvp sim O3 swr forced-miss cbbb0f319e716e7f
equake_smvp sim O3 swr geom:4:2 cbbb0f319e716e7f
equake_smvp sim O3 swr random:7:3 cbbb0f319e716e7f
equake_smvp sim O3 swr flash-clear:10 305acfbe3f339031
equake_smvp sim O3 swr evict-at:3:40:400 569d5dbc83608462
equake_smvp sim paper epic default 30518e8ba6e5042a
equake_smvp sim paper epic always-miss ce925d821048a709
equake_smvp sim paper epic random:1 87786619c77eba9c
equake_smvp sim paper epic flash-clear 0a069ef2d4dd77d6
equake_smvp sim paper epic forced-miss ce925d821048a709
equake_smvp sim paper epic geom:4:2 9c999d2a6abbc0b5
equake_smvp sim paper epic random:7:3 ae40cd5a7429df0d
equake_smvp sim paper epic flash-clear:10 25bc43b43f67df69
equake_smvp sim paper epic evict-at:3:40:400 26b5c0d2c033c737
equake_smvp sim paper swr default 33376daad9143b4f
equake_smvp sim paper swr always-miss fb90e3f607be6328
equake_smvp sim paper swr random:1 f4f003b76daf80bf
equake_smvp sim paper swr flash-clear 93b3a7b37a3ada27
equake_smvp sim paper swr forced-miss fb90e3f607be6328
equake_smvp sim paper swr geom:4:2 33376daad9143b4f
equake_smvp sim paper swr random:7:3 f4f003b76daf80bf
equake_smvp sim paper swr flash-clear:10 00b9ab78b62bf21e
equake_smvp sim paper swr evict-at:3:40:400 f5ba7b2db0a65ffc
gzip ref 2293fcf32b48469b
gzip train 7fa01ad272fb2584
gzip reuse b09cdf0e6bd36a4a
gzip sim O3 epic default f5c9944eada2e34a
gzip sim O3 epic always-miss f5c9944eada2e34a
gzip sim O3 epic random:1 f5c9944eada2e34a
gzip sim O3 epic flash-clear ebb8070264ece001
gzip sim O3 epic forced-miss f5c9944eada2e34a
gzip sim O3 epic geom:4:2 f5c9944eada2e34a
gzip sim O3 epic random:7:3 f5c9944eada2e34a
gzip sim O3 epic flash-clear:10 77d42e23cbfb8241
gzip sim O3 epic evict-at:3:40:400 a667ac5490205147
gzip sim O3 swr default f5c9944eada2e34a
gzip sim O3 swr always-miss f5c9944eada2e34a
gzip sim O3 swr random:1 f5c9944eada2e34a
gzip sim O3 swr flash-clear ebb8070264ece001
gzip sim O3 swr forced-miss f5c9944eada2e34a
gzip sim O3 swr geom:4:2 f5c9944eada2e34a
gzip sim O3 swr random:7:3 f5c9944eada2e34a
gzip sim O3 swr flash-clear:10 77d42e23cbfb8241
gzip sim O3 swr evict-at:3:40:400 a667ac5490205147
gzip sim paper epic default 59efffe65645f6a9
gzip sim paper epic always-miss 1fc2d8e75fdd6e2e
gzip sim paper epic random:1 75af62fa8e1c0fda
gzip sim paper epic flash-clear 5d045d10b42de0a0
gzip sim paper epic forced-miss 9f6b85455371944b
gzip sim paper epic geom:4:2 59efffe65645f6a9
gzip sim paper epic random:7:3 e56fe1a19b18afd8
gzip sim paper epic flash-clear:10 ab9f3ff476e8ea89
gzip sim paper epic evict-at:3:40:400 d5d10a4c161ea8c0
gzip sim paper swr default f5c9944eada2e34a
gzip sim paper swr always-miss f5c9944eada2e34a
gzip sim paper swr random:1 f5c9944eada2e34a
gzip sim paper swr flash-clear ebb8070264ece001
gzip sim paper swr forced-miss f5c9944eada2e34a
gzip sim paper swr geom:4:2 f5c9944eada2e34a
gzip sim paper swr random:7:3 f5c9944eada2e34a
gzip sim paper swr flash-clear:10 77d42e23cbfb8241
gzip sim paper swr evict-at:3:40:400 a667ac5490205147
many_funcs ref 7dd49339fb124587
many_funcs train 28b7da88ddcf561b
many_funcs reuse 8b9d3ee7964a5d22
many_funcs sim O3 epic default e68737c7edd2e456
many_funcs sim O3 epic always-miss e68737c7edd2e456
many_funcs sim O3 epic random:1 e68737c7edd2e456
many_funcs sim O3 epic flash-clear d3cb16d2205c3793
many_funcs sim O3 epic forced-miss e68737c7edd2e456
many_funcs sim O3 epic geom:4:2 e68737c7edd2e456
many_funcs sim O3 epic random:7:3 e68737c7edd2e456
many_funcs sim O3 epic flash-clear:10 3a9b620c248cc04e
many_funcs sim O3 epic evict-at:3:40:400 93a5f08956e4de83
many_funcs sim O3 swr default e68737c7edd2e456
many_funcs sim O3 swr always-miss e68737c7edd2e456
many_funcs sim O3 swr random:1 e68737c7edd2e456
many_funcs sim O3 swr flash-clear d3cb16d2205c3793
many_funcs sim O3 swr forced-miss e68737c7edd2e456
many_funcs sim O3 swr geom:4:2 e68737c7edd2e456
many_funcs sim O3 swr random:7:3 e68737c7edd2e456
many_funcs sim O3 swr flash-clear:10 3a9b620c248cc04e
many_funcs sim O3 swr evict-at:3:40:400 93a5f08956e4de83
many_funcs sim paper epic default bdefcc001b3026eb
many_funcs sim paper epic always-miss 5b0a2ad7e3b93ed2
many_funcs sim paper epic random:1 8e6b1fc14c135cc7
many_funcs sim paper epic flash-clear 672d8b313571cbd2
many_funcs sim paper epic forced-miss 5b0a2ad7e3b93ed2
many_funcs sim paper epic geom:4:2 bdefcc001b3026eb
many_funcs sim paper epic random:7:3 302a95a6094277e5
many_funcs sim paper epic flash-clear:10 b25db01127510e95
many_funcs sim paper epic evict-at:3:40:400 01a4f48e9df67108
many_funcs sim paper swr default e68737c7edd2e456
many_funcs sim paper swr always-miss e68737c7edd2e456
many_funcs sim paper swr random:1 e68737c7edd2e456
many_funcs sim paper swr flash-clear d3cb16d2205c3793
many_funcs sim paper swr forced-miss e68737c7edd2e456
many_funcs sim paper swr geom:4:2 e68737c7edd2e456
many_funcs sim paper swr random:7:3 e68737c7edd2e456
many_funcs sim paper swr flash-clear:10 3a9b620c248cc04e
many_funcs sim paper swr evict-at:3:40:400 93a5f08956e4de83
mcf ref be85e58f238aaf41
mcf train b0794adc9b9b091d
mcf reuse 5127f65b6257dc3c
mcf sim O3 epic default 497a142e02f1dd1b
mcf sim O3 epic always-miss 497a142e02f1dd1b
mcf sim O3 epic random:1 497a142e02f1dd1b
mcf sim O3 epic flash-clear e1d2216a960dd6f2
mcf sim O3 epic forced-miss 497a142e02f1dd1b
mcf sim O3 epic geom:4:2 497a142e02f1dd1b
mcf sim O3 epic random:7:3 497a142e02f1dd1b
mcf sim O3 epic flash-clear:10 0d87d2b59e38c348
mcf sim O3 epic evict-at:3:40:400 95284485ec3d05ae
mcf sim O3 swr default 497a142e02f1dd1b
mcf sim O3 swr always-miss 497a142e02f1dd1b
mcf sim O3 swr random:1 497a142e02f1dd1b
mcf sim O3 swr flash-clear e1d2216a960dd6f2
mcf sim O3 swr forced-miss 497a142e02f1dd1b
mcf sim O3 swr geom:4:2 497a142e02f1dd1b
mcf sim O3 swr random:7:3 497a142e02f1dd1b
mcf sim O3 swr flash-clear:10 0d87d2b59e38c348
mcf sim O3 swr evict-at:3:40:400 95284485ec3d05ae
mcf sim paper epic default e6bfd31ad13374ce
mcf sim paper epic always-miss b24de9bd9284420f
mcf sim paper epic random:1 750bde3191bca1ec
mcf sim paper epic flash-clear f678a08c97a78230
mcf sim paper epic forced-miss b24de9bd9284420f
mcf sim paper epic geom:4:2 e6bfd31ad13374ce
mcf sim paper epic random:7:3 cfdd6f87e311521f
mcf sim paper epic flash-clear:10 c04deedd2a1b0750
mcf sim paper epic evict-at:3:40:400 47f77a6e2ba1e4eb
mcf sim paper swr default 497a142e02f1dd1b
mcf sim paper swr always-miss 497a142e02f1dd1b
mcf sim paper swr random:1 497a142e02f1dd1b
mcf sim paper swr flash-clear e1d2216a960dd6f2
mcf sim paper swr forced-miss 497a142e02f1dd1b
mcf sim paper swr geom:4:2 497a142e02f1dd1b
mcf sim paper swr random:7:3 497a142e02f1dd1b
mcf sim paper swr flash-clear:10 0d87d2b59e38c348
mcf sim paper swr evict-at:3:40:400 95284485ec3d05ae
parser ref 98ed770905af383f
parser train 20c24364c5aee2fb
parser reuse 4172ffcd1d477ee3
parser sim O3 epic default e06e70257bb8c591
parser sim O3 epic always-miss e06e70257bb8c591
parser sim O3 epic random:1 e06e70257bb8c591
parser sim O3 epic flash-clear 1fd55401aded1994
parser sim O3 epic forced-miss e06e70257bb8c591
parser sim O3 epic geom:4:2 e06e70257bb8c591
parser sim O3 epic random:7:3 e06e70257bb8c591
parser sim O3 epic flash-clear:10 3e2c4cc7ef5c36d3
parser sim O3 epic evict-at:3:40:400 ddec01fc85676d58
parser sim O3 swr default e06e70257bb8c591
parser sim O3 swr always-miss e06e70257bb8c591
parser sim O3 swr random:1 e06e70257bb8c591
parser sim O3 swr flash-clear 1fd55401aded1994
parser sim O3 swr forced-miss e06e70257bb8c591
parser sim O3 swr geom:4:2 e06e70257bb8c591
parser sim O3 swr random:7:3 e06e70257bb8c591
parser sim O3 swr flash-clear:10 3e2c4cc7ef5c36d3
parser sim O3 swr evict-at:3:40:400 ddec01fc85676d58
parser sim paper epic default 900a942e92635acb
parser sim paper epic always-miss f51255478b0d5bb4
parser sim paper epic random:1 db6f63797f526c4c
parser sim paper epic flash-clear 602fe075f12866ba
parser sim paper epic forced-miss f51255478b0d5bb4
parser sim paper epic geom:4:2 900a942e92635acb
parser sim paper epic random:7:3 c82264065bd49fd8
parser sim paper epic flash-clear:10 c3c29df15e4e3d6c
parser sim paper epic evict-at:3:40:400 2ce9f87cfe2ad3ae
parser sim paper swr default e06e70257bb8c591
parser sim paper swr always-miss e06e70257bb8c591
parser sim paper swr random:1 e06e70257bb8c591
parser sim paper swr flash-clear 1fd55401aded1994
parser sim paper swr forced-miss e06e70257bb8c591
parser sim paper swr geom:4:2 e06e70257bb8c591
parser sim paper swr random:7:3 e06e70257bb8c591
parser sim paper swr flash-clear:10 3e2c4cc7ef5c36d3
parser sim paper swr evict-at:3:40:400 ddec01fc85676d58
twolf ref 1c4ec2ae8dd33502
twolf train 52e80cfc791689e0
twolf reuse 03773a1517f28405
twolf sim O3 epic default ed59719ade771fa0
twolf sim O3 epic always-miss ed59719ade771fa0
twolf sim O3 epic random:1 ed59719ade771fa0
twolf sim O3 epic flash-clear 1941d63d4b34e54a
twolf sim O3 epic forced-miss ed59719ade771fa0
twolf sim O3 epic geom:4:2 ed59719ade771fa0
twolf sim O3 epic random:7:3 ed59719ade771fa0
twolf sim O3 epic flash-clear:10 f81f117c646424bd
twolf sim O3 epic evict-at:3:40:400 09b57bbe9e248d99
twolf sim O3 swr default ed59719ade771fa0
twolf sim O3 swr always-miss ed59719ade771fa0
twolf sim O3 swr random:1 ed59719ade771fa0
twolf sim O3 swr flash-clear 1941d63d4b34e54a
twolf sim O3 swr forced-miss ed59719ade771fa0
twolf sim O3 swr geom:4:2 ed59719ade771fa0
twolf sim O3 swr random:7:3 ed59719ade771fa0
twolf sim O3 swr flash-clear:10 f81f117c646424bd
twolf sim O3 swr evict-at:3:40:400 09b57bbe9e248d99
twolf sim paper epic default 8e92a62de5d4cb18
twolf sim paper epic always-miss 8420823e3d85145d
twolf sim paper epic random:1 a451287132a1d18b
twolf sim paper epic flash-clear e5ea82c835514030
twolf sim paper epic forced-miss 8420823e3d85145d
twolf sim paper epic geom:4:2 8e92a62de5d4cb18
twolf sim paper epic random:7:3 66525459a49e1f65
twolf sim paper epic flash-clear:10 353594ec816fefb3
twolf sim paper epic evict-at:3:40:400 9f3c39e16b113961
twolf sim paper swr default ed59719ade771fa0
twolf sim paper swr always-miss ed59719ade771fa0
twolf sim paper swr random:1 ed59719ade771fa0
twolf sim paper swr flash-clear 1941d63d4b34e54a
twolf sim paper swr forced-miss ed59719ade771fa0
twolf sim paper swr geom:4:2 ed59719ade771fa0
twolf sim paper swr random:7:3 ed59719ade771fa0
twolf sim paper swr flash-clear:10 f81f117c646424bd
twolf sim paper swr evict-at:3:40:400 09b57bbe9e248d99
vpr ref d9ea22f8b2cd3662
vpr train 9cbf8520bb73897f
vpr reuse 2f8be6efd556587b
vpr sim O3 epic default 97e3defb6753f541
vpr sim O3 epic always-miss 97e3defb6753f541
vpr sim O3 epic random:1 97e3defb6753f541
vpr sim O3 epic flash-clear 2527edfb7e147523
vpr sim O3 epic forced-miss 97e3defb6753f541
vpr sim O3 epic geom:4:2 97e3defb6753f541
vpr sim O3 epic random:7:3 97e3defb6753f541
vpr sim O3 epic flash-clear:10 cf24fbfab7a4103b
vpr sim O3 epic evict-at:3:40:400 6903af51eb12fa88
vpr sim O3 swr default 97e3defb6753f541
vpr sim O3 swr always-miss 97e3defb6753f541
vpr sim O3 swr random:1 97e3defb6753f541
vpr sim O3 swr flash-clear 2527edfb7e147523
vpr sim O3 swr forced-miss 97e3defb6753f541
vpr sim O3 swr geom:4:2 97e3defb6753f541
vpr sim O3 swr random:7:3 97e3defb6753f541
vpr sim O3 swr flash-clear:10 cf24fbfab7a4103b
vpr sim O3 swr evict-at:3:40:400 6903af51eb12fa88
vpr sim paper epic default 795c39d3484eb46f
vpr sim paper epic always-miss 9dcde7badfcf3d1f
vpr sim paper epic random:1 3938792ebb805ff0
vpr sim paper epic flash-clear 2288e5ef33e636da
vpr sim paper epic forced-miss 9dcde7badfcf3d1f
vpr sim paper epic geom:4:2 795c39d3484eb46f
vpr sim paper epic random:7:3 22f4b80c35f47d1e
vpr sim paper epic flash-clear:10 97a08abc447d9e8e
vpr sim paper epic evict-at:3:40:400 7dc54c5f21c050a2
vpr sim paper swr default 97e3defb6753f541
vpr sim paper swr always-miss 97e3defb6753f541
vpr sim paper swr random:1 97e3defb6753f541
vpr sim paper swr flash-clear 2527edfb7e147523
vpr sim paper swr forced-miss 97e3defb6753f541
vpr sim paper swr geom:4:2 97e3defb6753f541
vpr sim paper swr random:7:3 97e3defb6753f541
vpr sim paper swr flash-clear:10 cf24fbfab7a4103b
vpr sim paper swr evict-at:3:40:400 6903af51eb12fa88
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
