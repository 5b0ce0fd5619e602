"""Reproduction of Singh & Bagler, "Data-driven investigations of
culinary patterns in traditional recipes across the world" (ICDEW 2018).

Package layout (see DESIGN.md):

* :mod:`repro.regions`    — the paper's Table 1 / Fig. 4 ground truth;
* :mod:`repro.flavordb`   — synthetic FlavorDB substrate;
* :mod:`repro.culinarydb` — synthetic recipe-corpus substrate;
* :mod:`repro.aliasing`   — ingredient-phrase aliasing pipeline;
* :mod:`repro.core`       — food-pairing analysis (the contribution);
* :mod:`repro.oracle`     — DuckDB result-equality checker;
* :mod:`repro.session`    — the SparkSession factory of jobs and tests.
"""
