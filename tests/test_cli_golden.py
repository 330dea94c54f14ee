"""Every command's output, byte for byte.

Each case runs one command on a tiny configuration (N=4, 3 trials, seed 11)
and compares its stdout and its ``--out`` file with the bytes recorded
below.  The cases cover all six commands, a run with Pc=0, whose
``Pc_over_N0_db`` is ``-inf``, and a point-mass first hop, whose
deterministic schemes print a zero standard error.
"""

import pytest

from confrelay.cli import main

CONFIG = "N=4\np=0.5\ntrials=3\nseed=11\n"

GOLDEN = {
    "single": (
        ["single"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,af,7.678714507909e-01,1.927101078297e-01,3,11\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,df,2.577434737138e-01,2.379582811656e-02,3,11\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"),
    "single_pc_zero": (
        ["single", "--set", "Pc=0", "--set", "schemes=upper"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,-inf,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"),
    "single_point_mass_h": (
        ["single", "--set", "h_dist=point_mass:0.6+0.8j"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,af,6.365922081997e-01,8.157925758052e-02,3,11\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,df,6.111962106682e-01,0.000000000000e+00,3,11\n"
        "single,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,upper,1.160964047444e+00,0.000000000000e+00,3,11\n"),
    "sweep_n": (
        ["sweep-n", "--axis", "4,6"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "n_relays,4.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,af,7.678714507909e-01,1.927101078297e-01,3,11\n"
        "n_relays,4.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,df,2.577434737138e-01,2.379582811656e-02,3,11\n"
        "n_relays,4.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"
        "n_relays,6.000000000000e+00,6,2,5.000000000000e-01,0.000000000000e+00,af,1.025247463667e+00,5.019527293127e-02,3,11\n"
        "n_relays,6.000000000000e+00,6,2,5.000000000000e-01,0.000000000000e+00,df,4.674601066384e-01,3.758894602837e-02,3,11\n"
        "n_relays,6.000000000000e+00,6,2,5.000000000000e-01,0.000000000000e+00,upper,1.525752679049e+00,1.082065213474e-01,3,11\n"),
    "sweep_p": (
        ["sweep-p", "--axis", "0.5,1"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "portion,5.000000000000e-01,4,1,5.000000000000e-01,0.000000000000e+00,af,7.678714507909e-01,1.927101078297e-01,3,11\n"
        "portion,5.000000000000e-01,4,1,5.000000000000e-01,0.000000000000e+00,df,2.577434737138e-01,2.379582811656e-02,3,11\n"
        "portion,5.000000000000e-01,4,1,5.000000000000e-01,0.000000000000e+00,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"
        "portion,1.000000000000e+00,4,3,1.000000000000e+00,0.000000000000e+00,af,8.832677069886e-01,2.187230381421e-01,3,11\n"
        "portion,1.000000000000e+00,4,3,1.000000000000e+00,0.000000000000e+00,df,6.614871479219e-01,1.651511961093e-01,3,11\n"
        "portion,1.000000000000e+00,4,3,1.000000000000e+00,0.000000000000e+00,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"),
    "sweep_snr": (
        ["sweep-snr", "--axis=-10,0,10"],
        "axis,axis_value,N,M,p_effective,Pc_over_N0_db,scheme,mean_rate_bits,std_error,trials,base_seed\n"
        "conf_snr_db,-1.000000000000e+01,4,1,5.000000000000e-01,-1.000000000000e+01,af,2.968134760976e-01,8.992250529548e-02,3,11\n"
        "conf_snr_db,-1.000000000000e+01,4,1,5.000000000000e-01,-1.000000000000e+01,df,7.627517948307e-02,1.262868588376e-02,3,11\n"
        "conf_snr_db,-1.000000000000e+01,4,1,5.000000000000e-01,-1.000000000000e+01,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"
        "conf_snr_db,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,af,7.678714507909e-01,1.927101078297e-01,3,11\n"
        "conf_snr_db,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,df,2.577434737138e-01,2.379582811656e-02,3,11\n"
        "conf_snr_db,0.000000000000e+00,4,1,5.000000000000e-01,0.000000000000e+00,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"
        "conf_snr_db,1.000000000000e+01,4,1,5.000000000000e-01,1.000000000000e+01,af,9.342143950033e-01,2.186729139623e-01,3,11\n"
        "conf_snr_db,1.000000000000e+01,4,1,5.000000000000e-01,1.000000000000e+01,df,4.600975550599e-01,8.406444239116e-02,3,11\n"
        "conf_snr_db,1.000000000000e+01,4,1,5.000000000000e-01,1.000000000000e+01,upper,1.190803444857e+00,2.408673295508e-01,3,11\n"),
    "oracle": (
        ["oracle", "--draws", "2000"],
        "scheme,analytic_sinr,empirical_sinr,rel_gap,std_error,symbol_draws,seed\n"
        "af,2.534081408286e+00,2.530031381197e+00,1.598222959853e-03,5.697869588587e-02,2000,11\n"
        "df,3.353578030046e+01,3.307270284038e+01,1.380845938076e-02,7.353960525108e-01,2000,11\n"),
    "diagnose": (
        ["diagnose", "--axis", "4,8,16"],
        "scheme,n_relays,mean_rate_bits,mean_abs_gap,trials\n"
        "af,4,7.678714507909e-01,3.930925966528e-01,3\n"
        "af,8,1.097625507498e+00,4.873369932231e-01,3\n"
        "af,16,1.747388239946e+00,2.963431806790e-01,3\n"
        "df,4,2.577434737138e-01,3.534527369544e-01,3\n"
        "df,8,5.654305915191e-01,2.270506588415e-01,3\n"
        "df,16,7.629526808392e-01,2.947859278707e-01,3\n"
        "upper,4,1.190803444857e+00,3.083685147593e-01,3\n"
        "upper,8,1.728300797941e+00,1.433382972198e-01,3\n"
        "upper,16,2.043122814580e+00,1.435179132747e-01,3\n"
        "\n"
        "scheme,slope,intercept,residual_rms,n_points\n"
        "af,4.897583945776e-01,-2.649801176545e-01,7.542676821832e-02,3\n"
        "df,2.526046035627e-01,-2.291048953307e-01,2.596614623047e-02,3\n"
        "upper,4.261596848618e-01,3.755966312071e-01,5.248508013448e-02,3\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(name, tmp_path, capsys):
    argv, expected = GOLDEN[name]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG)
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
