from signshuffle import build_config

import worker
import workloads


def test_split_sweeps_cover_each_preset_method_once(tmp_path, logistic_data):
    csv = str(logistic_data[0])
    for workload in workloads.WORKLOADS:
        configs = worker.sweep_configs(workload, 3, tmp_path, csv)
        whole = [build_config(preset_name=preset, overrides=overrides)
                 for _, preset, overrides in workloads.sweeps(workload, 3, str(tmp_path), csv)]
        assert [a for c in configs for a in c.algorithms] == \
            [a for c in whole for a in c.algorithms], workload
        assert all(len(c.algorithms) <= worker.METHODS_PER_SWEEP for c in configs)
        assert len({c.out_dir for c in configs}) == len(configs)


def test_full_sweeps_match_the_workloads_but_for_size(tmp_path):
    for workload in workloads.WORKLOADS:
        bench = workloads.sweeps(workload, 3, str(tmp_path), "x.csv")
        full = workloads.full_sweeps(workload, 3, str(tmp_path), "x.csv")
        assert [(name, preset) for name, preset, _ in bench] == \
            [(name, preset) for name, preset, _ in full]
